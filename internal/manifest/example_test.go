package manifest_test

import (
	"fmt"
	"strings"

	"vmp/internal/manifest"
)

// ExampleInferProtocol shows the Table 1 inference rule on the paper's
// sample URLs.
func ExampleInferProtocol() {
	urls := []string{
		"http://cdn.akamaihd.net/master.m3u8",
		"http://cdn.llwnd.net//Z53TiGRzq.mpd",
		"http://cdn.level3.net/56.ism/manifest",
		"http://cdn.aws.com/cache/hds.f4m",
		"rtmp://live.example.com/ch1",
	}
	for _, u := range urls {
		fmt.Println(manifest.InferProtocol(u))
	}
	// Output:
	// HLS
	// DASH
	// SmoothStreaming
	// HDS
	// RTMP
}

// ExampleGenerate packages a two-rung title as an HLS master playlist
// and parses it back.
func ExampleGenerate() {
	spec := &manifest.Spec{
		VideoID:     "v42",
		DurationSec: 60,
		ChunkSec:    4,
		AudioKbps:   96,
		Ladder: manifest.Ladder{
			{BitrateKbps: 400, Width: 640, Height: 360},
			{BitrateKbps: 1200, Width: 1280, Height: 720},
		},
	}
	text, err := manifest.Generate(spec, "http://cdn-a.example/pub1")
	if err != nil {
		panic(err)
	}
	fmt.Println(strings.SplitN(text, "\n", 2)[0])

	m, err := manifest.Parse(text)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%d renditions, %d chunks of %.0fs\n", len(m.Ladder), m.ChunkCount(), m.ChunkSec)
	fmt.Println(m.ChunkURL(1, 0))
	// Output:
	// #EXTM3U
	// 2 renditions, 15 chunks of 4s
	// http://cdn-a.example/pub1/v42/r1/seg0.ts
}
