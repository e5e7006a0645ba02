package wire

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"

	"vmp/internal/telemetry/record"
)

// TestFramesNeverStale pins the hazard Frames brings to a pooled
// decoder: a WAL logs Frames for the records DecodeAll returned, so the
// bytes must never be an earlier request's. After a good binary decode,
// a JSONL scan and every kind of failed DecodeAll — a truncated frame,
// a bad magic, a body cut off at MaxBodyBytes after a good first frame —
// must leave Frames nil, not the good stream and not the part read.
func TestFramesNeverStale(t *testing.T) {
	frame, err := NewEncoder().AppendFrame(nil, []record.ViewRecord{
		{Publisher: "pub-a", URL: "http://v.example/a.m3u8", CDNs: []string{"cdn-a"}, ViewSec: 30},
		{Publisher: "pub-b", Bitrates: []int{400, 800}, Live: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	stream := append(append([]byte(nil), frame...), frame...)
	badMagic := append([]byte(nil), stream...)
	badMagic[len(frame)+4] = 'X'
	dec := NewDecoder()
	for _, c := range []struct {
		name string
		next func() error // nil error: a decode that succeeds without frames
	}{
		{"jsonl", func() error {
			_, _, _, err := dec.ScanJSONL(strings.NewReader(`{"pub":"pub-c"}` + "\n"))
			return err
		}},
		{"truncated frame", func() error {
			_, err := dec.DecodeAll(bytes.NewReader(stream[:len(stream)-3]))
			return wantErr(err, errTruncated)
		}},
		{"bad magic", func() error {
			_, err := dec.DecodeAll(bytes.NewReader(badMagic))
			return wantErr(err, nil)
		}},
		{"over MaxBodyBytes", func() error {
			// A body that has already delivered all but the first frame's
			// worth of the cap: that frame decodes, the next one's length
			// prefix crosses the cap.
			cr := &countingReader{r: bytes.NewReader(stream), n: MaxBodyBytes - int64(len(frame)) - 2}
			_, err := dec.DecodeAll(cr)
			return wantErr(err, ErrBodyTooLarge)
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			if _, err := dec.DecodeAll(bytes.NewReader(stream)); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(dec.Frames(), stream) {
				t.Fatalf("Frames after a good decode: %d bytes, want the %d-byte stream", len(dec.Frames()), len(stream))
			}
			if err := c.next(); err != nil {
				t.Fatal(err)
			}
			if f := dec.Frames(); f != nil {
				t.Fatalf("Frames is %d stale bytes", len(f))
			}
		})
	}
}

// wantErr turns a decode that should have failed (with want, if not
// nil) into a test error.
func wantErr(err, want error) error {
	switch {
	case err == nil:
		return errors.New("decode succeeded")
	case want != nil && !errors.Is(err, want):
		return fmt.Errorf("decode failed with %v, not %v", err, want)
	}
	return nil
}

// TestUnbackedFrameLengthAllocatesLittle: a body that is nothing but a
// length prefix declaring 64 MiB must fail as truncated without
// allocating room for the 64 MiB first.
func TestUnbackedFrameLengthAllocatesLittle(t *testing.T) {
	dec := NewDecoder()
	body := []byte{0x00, 0x00, 0x00, 0x04} // little-endian 64 MiB
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := dec.DecodeAll(bytes.NewReader(body))
	runtime.ReadMemStats(&after)
	if err := wantErr(err, errTruncated); err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 5<<20 {
		t.Fatalf("decoding a bare 64 MiB length prefix allocated %d bytes, want < 5 MiB", got)
	}
}

// TestFrameLongerThanExactGrowDecodes reads a frame past exactGrowBytes,
// whose room grows as it arrives, through a reader that hands out half
// of what is asked: it must decode to the records encoded, and the
// same frame cut short must fail as truncated mid-payload.
func TestFrameLongerThanExactGrowDecodes(t *testing.T) {
	recs := make([]record.ViewRecord, 5000)
	for i := range recs {
		recs[i] = record.ViewRecord{
			Publisher: "pub-a",
			URL:       fmt.Sprintf("http://v.example/%d/%s.m3u8", i, strings.Repeat("x", 1000)),
			ViewSec:   float64(i),
		}
	}
	frame, err := NewEncoder().AppendFrame(nil, recs)
	if err != nil {
		t.Fatal(err)
	}
	if len(frame) <= 4+exactGrowBytes {
		t.Fatalf("frame of %d bytes is not past exactGrowBytes", len(frame))
	}
	dec := NewDecoder()
	got, err := dec.DecodeAll(iotest.HalfReader(bytes.NewReader(frame)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i].URL != recs[i].URL || got[i].ViewSec != recs[i].ViewSec {
			t.Fatalf("record %d: %q %v, want %q %v", i, got[i].URL, got[i].ViewSec, recs[i].URL, recs[i].ViewSec)
		}
	}
	if !bytes.Equal(dec.Frames(), frame) {
		t.Fatal("Frames is not the stream read")
	}
	_, err = dec.DecodeAll(bytes.NewReader(frame[:len(frame)-3]))
	if err := wantErr(err, io.ErrUnexpectedEOF); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(err, errTruncated) {
		t.Fatalf("cut frame failed with %v, not %v", err, errTruncated)
	}
}
