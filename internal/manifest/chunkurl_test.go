package manifest

import (
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// mediaURIs reads a master's variant URIs straight from its text.
func mediaURIs(text string) []string {
	var out []string
	for _, line := range strings.Split(text, "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			out = append(out, line)
		}
	}
	return out
}

// wantChunkURL is the template a chunk URL must match byte for byte.
func wantChunkURL(uri string, i int) string {
	return strings.TrimSuffix(uri, ".m3u8") + "/seg" + strconv.Itoa(i) + ".ts"
}

// longSpec packages more chunks than a rendition keeps URLs for.
func longSpec() *Spec {
	s := testSpec()
	s.DurationSec = float64(maxChunkURLs+500) * s.ChunkSec
	return s
}

// TestChunkURLsReusedAndByteIdentical asks for every chunk of every
// rendition out of order, twice: each URL must match the template, and
// below maxChunkURLs the second answer must be the very string the
// first was, not an equal copy.
func TestChunkURLsReusedAndByteIdentical(t *testing.T) {
	text, err := Generate(longSpec(), "http://cdn-a.example.net/pub7")
	if err != nil {
		t.Fatal(err)
	}
	m, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	uris := mediaURIs(text)
	if len(uris) != len(m.Ladder) {
		t.Fatalf("%d URIs for %d renditions", len(uris), len(m.Ladder))
	}
	n := m.ChunkCount()
	if n <= maxChunkURLs {
		t.Fatalf("ChunkCount %d does not pass maxChunkURLs %d", n, maxChunkURLs)
	}
	for r, uri := range uris {
		first := make([]string, n)
		for k := 0; k < n; k++ {
			i := k * 7919 % n // 7919 is prime and does not divide n: a permutation
			first[i] = m.ChunkURL(r, i)
		}
		for i := n - 1; i >= 0; i-- {
			got := m.ChunkURL(r, i)
			if want := wantChunkURL(uri, i); got != want || first[i] != want {
				t.Fatalf("rendition %d chunk %d: %q then %q, want %q", r, i, first[i], got, want)
			}
			if i < maxChunkURLs && unsafe.StringData(got) != unsafe.StringData(first[i]) {
				t.Fatalf("rendition %d chunk %d: URL built again, not reused", r, i)
			}
		}
	}
}

// TestParseHugeChunkCountAllocatesLittle: a master declaring a billion
// chunks parses, and addressing its first, last and last kept chunk
// costs the URLs asked for, not the chunks declared.
func TestParseHugeChunkCountAllocatesLittle(t *testing.T) {
	text := "#EXTM3U\n#EXT-X-SESSION-DATA:DATA-ID=\"x\",VALUE=\"chunks=1000000000\"\n" +
		"#EXT-X-STREAM-INF:BANDWIDTH=500000\nhttp://c/v/r0.m3u8\n" +
		"#EXT-X-STREAM-INF:BANDWIDTH=900000\nhttp://c/v/r1.m3u8\n"
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	if m.ChunkCount() != 1_000_000_000 {
		t.Fatalf("ChunkCount %d, want 1e9", m.ChunkCount())
	}
	last := m.ChunkURL(1, m.ChunkCount()-1)
	first := m.ChunkURL(0, 0)
	kept := m.ChunkURL(1, maxChunkURLs-1)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("Parse and three ChunkURLs allocated %d bytes, want < 1 MiB", got)
	}
	for _, c := range []struct{ got, want string }{
		{last, "http://c/v/r1/seg999999999.ts"},
		{first, "http://c/v/r0/seg0.ts"},
		{kept, "http://c/v/r1/seg" + strconv.Itoa(maxChunkURLs-1) + ".ts"},
	} {
		if c.got != c.want {
			t.Errorf("chunk URL %q, want %q", c.got, c.want)
		}
	}
}

// TestChunkURLsConcurrentSessions plays one manifest from several
// goroutines at once, as the sessions of concurrent slices may: every
// URL must match the template (and -race must see no unsynchronized
// access while the renditions grow).
func TestChunkURLsConcurrentSessions(t *testing.T) {
	text, err := Generate(longSpec(), "http://cdn-b.example.net/pub3")
	if err != nil {
		t.Fatal(err)
	}
	m, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	uris := mediaURIs(text)
	errs := make([]string, 4)
	var wg sync.WaitGroup
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < m.ChunkCount(); i++ {
				r := (i + g) % len(uris)
				if got, want := m.ChunkURL(r, i), wantChunkURL(uris[r], i); got != want {
					errs[g] = got + " != " + want
					return
				}
			}
		}()
	}
	wg.Wait()
	for g, e := range errs {
		if e != "" {
			t.Errorf("goroutine %d: %s", g, e)
		}
	}
}
