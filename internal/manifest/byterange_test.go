package manifest

import "testing"

func byteRangeSpec() *Spec {
	s := testSpec()
	s.ByteRange = true
	return s
}

func TestByteRangeValidation(t *testing.T) {
	s := byteRangeSpec()
	if err := s.Validate(); err != nil {
		t.Fatalf("VoD byte-range spec rejected: %v", err)
	}
	s.Live = true
	if err := s.Validate(); err == nil {
		t.Fatal("live byte-range spec accepted")
	}
}

func TestByteRangeMasterRoundTrip(t *testing.T) {
	spec := byteRangeSpec()
	text, err := Generate(HLS, spec, "http://cdn/p")
	if err != nil {
		t.Fatal(err)
	}
	m, err := Parse("http://cdn/p/v123.m3u8", text)
	if err != nil {
		t.Fatal(err)
	}
	if !m.ByteRange {
		t.Fatal("ByteRange flag lost in master round trip")
	}
	// Chunk URLs collapse onto one file per rendition.
	if m.ChunkURL(0, 0) != m.ChunkURL(0, 5) {
		t.Fatal("byte-range chunks should share one URL")
	}
	if m.ChunkURL(0, 0) == m.ChunkURL(1, 0) {
		t.Fatal("different renditions must use different files")
	}
	off, length, ok := m.ChunkRange(1, 3)
	if !ok {
		t.Fatal("ChunkRange should apply")
	}
	wantLen := int64((1200 + 96) * 1000 * 4 / 8)
	if length != wantLen || off != 3*wantLen {
		t.Fatalf("ChunkRange = %d@%d, want %d@%d", length, off, wantLen, 3*wantLen)
	}
}

func TestChunkRangeOnChunkedContent(t *testing.T) {
	m := roundTrip(t, HLS, testSpec())
	if _, _, ok := m.ChunkRange(0, 0); ok {
		t.Fatal("ChunkRange should not apply to chunked content")
	}
}

func TestChunkRangePanicsOutOfRange(t *testing.T) {
	spec := byteRangeSpec()
	text, err := Generate(HLS, spec, "http://cdn/p")
	if err != nil {
		t.Fatal(err)
	}
	m, err := Parse("http://cdn/p/v123.m3u8", text)
	if err != nil {
		t.Fatal(err)
	}
	for _, fn := range []func(){
		func() { m.ChunkRange(-1, 0) },
		func() { m.ChunkRange(0, 1_000_000) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("out-of-range ChunkRange should panic")
				}
			}()
			fn()
		}()
	}
}
