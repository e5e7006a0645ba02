package wire_test

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"
	"unsafe"

	"vmp/internal/telemetry"
	"vmp/internal/telemetry/record"
	"vmp/internal/wire"
)

// genRecords builds a deterministic, dimension-diverse batch: repeated
// publishers/devices/CDNs (the interning win), app and browser views,
// multi-CDN views, empty optional fields, weighted and failed records.
func genRecords(n int) []record.ViewRecord {
	base := time.Date(2012, 3, 1, 0, 0, 0, 0, time.UTC)
	cdnSets := [][]string{{"cdn-a"}, {"cdn-b"}, {"cdn-a", "cdn-b"}, {"cdn-c", "cdn-a", "cdn-b"}, nil}
	ladders := [][]int{{400, 800, 1600}, {235, 375, 560, 750, 1050, 1750, 2350}, nil, {3000}}
	recs := make([]record.ViewRecord, n)
	for i := range recs {
		r := record.ViewRecord{
			Timestamp:      base.Add(time.Duration(i) * 37 * time.Second),
			Publisher:      fmt.Sprintf("pub-%02d", i%7),
			VideoID:        fmt.Sprintf("vid-%04d", i%101),
			URL:            fmt.Sprintf("http://v.example/%d/master.m3u8", i%11),
			Device:         []string{"Roku", "iPhone", "HTML5", "XBox"}[i%4],
			OS:             []string{"RokuOS", "iOS", "", "Windows"}[i%4],
			CDNs:           cdnSets[i%len(cdnSets)],
			Bitrates:       ladders[i%len(ladders)],
			ISP:            fmt.Sprintf("isp-%d", i%3),
			ConnType:       []string{"wifi", "cell", ""}[i%3],
			Geo:            []string{"US-CA", "US-NY", "DE-BE"}[i%3],
			Live:           i%5 == 0,
			Syndicated:     i%6 == 0,
			ContentID:      fmt.Sprintf("title-%d", i%13),
			ViewSec:        float64(i%900) + 0.25,
			AvgBitrateKbps: 600 + float64(i%8)*150,
			RebufferSec:    float64(i%10) / 4,
			Failed:         i%17 == 0,
		}
		if i%4 == 1 {
			r.SDK = "roku-sdk"
			r.SDKVersion = "2.1"
		} else {
			r.UserAgent = fmt.Sprintf("UA/%d", i%5)
		}
		if i%6 == 0 {
			r.Owner = "pub-00"
		}
		if i%9 == 0 {
			r.Weight = float64(i%50) + 0.5
		}
		recs[i] = r
	}
	return recs
}

func encodeFrames(t testing.TB, recs []record.ViewRecord) []byte {
	t.Helper()
	frame, err := wire.NewEncoder().AppendFrame(nil, recs)
	if err != nil {
		t.Fatalf("AppendFrame: %v", err)
	}
	return frame
}

func TestRoundTrip(t *testing.T) {
	in := genRecords(257) // not a multiple of 8: exercises the bitset tail
	out, err := wire.NewDecoder().DecodeAll(bytes.NewReader(encodeFrames(t, in)))
	if err != nil {
		t.Fatalf("DecodeAll: %v", err)
	}
	if len(out) != len(in) {
		t.Fatalf("decoded %d records, want %d", len(out), len(in))
	}
	for i := range in {
		if !reflect.DeepEqual(in[i], out[i]) {
			t.Fatalf("record %d mismatch:\n in: %+v\nout: %+v", i, in[i], out[i])
		}
	}
}

func TestRoundTripEmptyBatch(t *testing.T) {
	out, err := wire.NewDecoder().DecodeAll(bytes.NewReader(encodeFrames(t, nil)))
	if err != nil {
		t.Fatalf("DecodeAll: %v", err)
	}
	if len(out) != 0 {
		t.Fatalf("decoded %d records from empty batch", len(out))
	}
}

// TestCanonicalByteIdentity pins the determinism contract: encoding a
// canonically sorted batch, decoding it, and re-encoding the decode
// result — with a fresh encoder — must reproduce the frame bytes
// exactly.
func TestCanonicalByteIdentity(t *testing.T) {
	recs := genRecords(200)
	telemetry.CanonicalSort(recs)
	f1 := encodeFrames(t, recs)
	dec := wire.NewDecoder()
	out, err := dec.DecodeAll(bytes.NewReader(f1))
	if err != nil {
		t.Fatalf("DecodeAll: %v", err)
	}
	f2 := encodeFrames(t, out)
	if !bytes.Equal(f1, f2) {
		t.Fatalf("encode→decode→encode changed the frame: %d vs %d bytes", len(f1), len(f2))
	}
	// Same batch through the same encoder twice is also identical.
	f3 := encodeFrames(t, recs)
	if !bytes.Equal(f1, f3) {
		t.Fatal("re-encoding the same batch produced different bytes")
	}
}

// TestMultiFrameStream checks a body holding several frames decodes to
// the concatenated record sequence — the shape a streaming client
// produces when it splits a large batch.
func TestMultiFrameStream(t *testing.T) {
	recs := genRecords(90)
	enc := wire.NewEncoder()
	var stream []byte
	var err error
	for lo := 0; lo < len(recs); lo += 40 {
		hi := min(lo+40, len(recs))
		stream, err = enc.AppendFrame(stream, recs[lo:hi])
		if err != nil {
			t.Fatalf("AppendFrame: %v", err)
		}
	}
	out, err := wire.NewDecoder().DecodeAll(bytes.NewReader(stream))
	if err != nil {
		t.Fatalf("DecodeAll: %v", err)
	}
	if !reflect.DeepEqual(recs, out) {
		t.Fatalf("multi-frame decode mismatch: got %d records, want %d", len(out), len(recs))
	}
}

// TestDecoderReuse pins the ownership contract both ingest paths rely
// on: records copied out of one DecodeAll result stay intact after the
// decoder is reused for a different batch.
func TestDecoderReuse(t *testing.T) {
	a, b := genRecords(64), genRecords(128)[64:]
	dec := wire.NewDecoder()
	got, err := dec.DecodeAll(bytes.NewReader(encodeFrames(t, a)))
	if err != nil {
		t.Fatalf("DecodeAll(a): %v", err)
	}
	kept := make([]record.ViewRecord, len(got))
	copy(kept, got) // what Engine.Ingest / Store.Append do, synchronously
	if _, err := dec.DecodeAll(bytes.NewReader(encodeFrames(t, b))); err != nil {
		t.Fatalf("DecodeAll(b): %v", err)
	}
	if !reflect.DeepEqual(a, kept) {
		t.Fatal("records copied out of the first decode were corrupted by the second")
	}
}

func TestDecodeErrors(t *testing.T) {
	valid := encodeFrames(t, genRecords(10))
	corrupt := func(mutate func([]byte) []byte) []byte {
		c := append([]byte(nil), valid...)
		return mutate(c)
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"truncated length prefix", valid[:2]},
		{"truncated payload", valid[:len(valid)-3]},
		{"bad magic", corrupt(func(b []byte) []byte { b[4] = 'X'; return b })},
		{"unknown version", corrupt(func(b []byte) []byte { b[6] = 99; return b })},
		{"unknown flags", corrupt(func(b []byte) []byte { b[7] = 0x80; return b })},
		{"oversized length prefix", []byte{0xff, 0xff, 0xff, 0xff}},
		{"garbage", bytes.Repeat([]byte{0xa5}, 64)},
		{"trailing bytes", func() []byte {
			// Grow the declared payload length past the columns.
			c := append([]byte(nil), valid...)
			c = append(c, 0, 0, 0)
			c[0] += 3
			return c
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := wire.NewDecoder().DecodeAll(bytes.NewReader(tc.data)); err == nil {
				t.Fatal("decode succeeded on corrupt input")
			}
		})
	}
}

// TestDecodeSteadyStateAllocs pins the zero-allocations claim: a warm
// decoder decodes a 1000-record batch it has seen the strings, CDN
// lists and bitrate ladders of without allocating at all — every value
// a record keeps comes out of the decoder's caches.
func TestDecodeSteadyStateAllocs(t *testing.T) {
	recs := genRecords(1000)
	stream := encodeFrames(t, recs)
	dec := wire.NewDecoder()
	rd := bytes.NewReader(stream)
	decode := func() {
		rd.Reset(stream)
		if _, err := dec.DecodeAll(rd); err != nil {
			t.Fatalf("DecodeAll: %v", err)
		}
	}
	decode() // warm scratch buffers and the intern cache
	allocs := testing.AllocsPerRun(50, decode)
	if allocs != 0 {
		t.Fatalf("steady-state DecodeAll of 1000 records costs %.1f allocs/op, want 0", allocs)
	}
}

// distinctRecords is genRecords with a video ID, URL and content ID of
// its own per record: a batch of n encodes to a string table of more
// than 3n entries, as a checkpoint frame's does.
func distinctRecords(n int) []record.ViewRecord {
	recs := genRecords(n)
	for i := range recs {
		recs[i].VideoID = fmt.Sprintf("vid-%06d", i)
		recs[i].URL = fmt.Sprintf("http://v.example/%06d/master.m3u8", i)
		recs[i].ContentID = fmt.Sprintf("title-%06d", i)
	}
	return recs
}

// TestDecodeSharesStringsAcrossFrames: a frame with a small table
// interns through the decoder's cache, so a value two batches repeat
// is one string, not one per batch.
func TestDecodeSharesStringsAcrossFrames(t *testing.T) {
	dec := wire.NewDecoder()
	var kept []record.ViewRecord
	for _, recs := range [][]record.ViewRecord{genRecords(20), genRecords(40)[20:]} {
		got, err := dec.DecodeAll(bytes.NewReader(encodeFrames(t, recs)))
		if err != nil {
			t.Fatalf("DecodeAll: %v", err)
		}
		kept = append(kept, got[0])
	}
	a, b := kept[0].Device, kept[1].Device
	if a != b {
		t.Fatalf("the two batches open with devices %q and %q; the test wants one value", a, b)
	}
	if unsafe.StringData(a) != unsafe.StringData(b) {
		t.Fatalf("device %q decoded from two frames is two strings", a)
	}
}

// TestDecodeBulkTableAllocs pins the path a checkpoint frame takes: a
// string table of more than wire.BulkTable entries is copied once and
// sliced, so a warm decoder decodes it in one allocation, that copy —
// not one per entry, as a cache it overflows would cost.
func TestDecodeBulkTableAllocs(t *testing.T) {
	stream := encodeFrames(t, distinctRecords(wire.BulkTable+1))
	dec := wire.NewDecoder()
	rd := bytes.NewReader(stream)
	decode := func() {
		rd.Reset(stream)
		if _, err := dec.DecodeAll(rd); err != nil {
			t.Fatalf("DecodeAll: %v", err)
		}
	}
	decode()
	if allocs := testing.AllocsPerRun(10, decode); allocs > 1 {
		t.Fatalf("steady-state DecodeAll of a %d-record bulk frame costs %.1f allocs/op, want <= 1", wire.BulkTable+1, allocs)
	}
}

// TestDecodeBulkTableMatchesSmallFrames: the same records as one frame
// whose table skips the cache and as 500-record frames that go through
// it decode field for field alike — which holds the bulk path's
// substring offsets.
func TestDecodeBulkTableMatchesSmallFrames(t *testing.T) {
	recs := distinctRecords(wire.BulkTable + 1)
	enc := wire.NewEncoder()
	var small []byte
	for lo := 0; lo < len(recs); lo += 500 {
		var err error
		if small, err = enc.AppendFrame(small, recs[lo:min(lo+500, len(recs))]); err != nil {
			t.Fatalf("AppendFrame: %v", err)
		}
	}
	dec := wire.NewDecoder()
	fromSmall, err := dec.DecodeAll(bytes.NewReader(small))
	if err != nil {
		t.Fatalf("DecodeAll(500-record frames): %v", err)
	}
	fromSmall = slices.Clone(fromSmall)
	fromBulk, err := dec.DecodeAll(bytes.NewReader(encodeFrames(t, recs)))
	if err != nil {
		t.Fatalf("DecodeAll(one frame): %v", err)
	}
	for i := range recs {
		if !reflect.DeepEqual(fromBulk[i], fromSmall[i]) || !reflect.DeepEqual(fromBulk[i], recs[i]) {
			t.Fatalf("record %d:\n bulk: %+v\nsmall: %+v\n   in: %+v", i, fromBulk[i], fromSmall[i], recs[i])
		}
	}
}

// BenchmarkWireEncode is the in-package microscope for the encode
// inside bench/'s wal.commit_ms (the checkpoint is written as frames
// through this encoder): one op encodes a 2000-record frame through a
// warm encoder.
func BenchmarkWireEncode(b *testing.B) {
	recs := genRecords(2000)
	telemetry.CanonicalSort(recs)
	enc := wire.NewEncoder()
	var frame []byte
	var err error
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame, err = enc.AppendFrame(frame[:0], recs)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(2000*b.N)/b.Elapsed().Seconds(), "records/s")
	b.ReportMetric(float64(len(frame))/2000, "bytes/record")
}

// BenchmarkWireDecode is the in-package microscope for bench/'s
// wire.decode_ms_per_batch on a binary POST (BenchmarkDecoderScanJSONL
// is the JSONL one): one op decodes a 2000-record binary frame through
// a warm decoder.
func BenchmarkWireDecode(b *testing.B) {
	recs := genRecords(2000)
	telemetry.CanonicalSort(recs)
	stream := encodeFrames(b, recs)
	dec := wire.NewDecoder()
	rd := bytes.NewReader(stream)
	b.SetBytes(int64(len(stream)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(stream)
		out, err := dec.DecodeAll(rd)
		if err != nil {
			b.Fatal(err)
		}
		if len(out) != len(recs) {
			b.Fatalf("decoded %d records, want %d", len(out), len(recs))
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(recs)*b.N)/b.Elapsed().Seconds(), "records/s")
}
