package wire_test

import (
	"bytes"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"vmp/internal/telemetry/record"
	"vmp/internal/wire"
)

// TestDecodeReuseKeepsAdmittedBatchStable pins the decoder's ownership
// contract from the admitting side. Live ingest admits a decoded batch by
// shallow-copying the record structs (strings are immutable, and so
// are the interned CDN lists and bitrate ladders), then the decoder is
// fed a second, larger batch that rewrites and grows every piece of
// reused scratch: the frame buffer, the record slice, the string-table
// scratch and the list scratch. If any admitted field secretly
// aliased decoder scratch, the second decode would rewrite it.
func TestDecodeReuseKeepsAdmittedBatchStable(t *testing.T) {
	dec := wire.NewDecoder()
	got, err := dec.DecodeAll(bytes.NewReader(encodeFrames(t, genRecords(64))))
	if err != nil {
		t.Fatalf("first DecodeAll: %v", err)
	}
	if len(got) != 64 {
		t.Fatalf("first decode returned %d records, want 64", len(got))
	}
	// Admit the batch the way the ingest paths do: copy the structs out
	// of the decoder-owned slice before the next DecodeAll call.
	admitted := append([]record.ViewRecord(nil), got...)
	want := deepCloneRecords(admitted)
	stable := encodeFrames(t, admitted)

	// Second batch: larger (forces the frame buffer and record slice to
	// grow, not just rewrite) and with disjoint string values (forces
	// fresh interning and rebuilds the table scratch end to end).
	second := genRecords(512)
	for i := range second {
		second[i].Publisher = "second-" + second[i].Publisher
		second[i].VideoID = "second-" + second[i].VideoID
		second[i].URL = strings.Replace(second[i].URL, "example", "elsewhere", 1)
		second[i].CDNs = []string{"cdn-z", "cdn-y"}
		second[i].Bitrates = []int{9999, 8888, 7777}
	}
	if _, err := dec.DecodeAll(bytes.NewReader(encodeFrames(t, second))); err != nil {
		t.Fatalf("second DecodeAll: %v", err)
	}

	// The admitted batch must be untouched: field for field against the
	// deep snapshot, and byte for byte through the canonical encoding.
	for i := range admitted {
		if !reflect.DeepEqual(admitted[i], want[i]) {
			t.Errorf("admitted record %d changed after scratch reuse:\n got %+v\nwant %+v", i, admitted[i], want[i])
		}
	}
	if after := encodeFrames(t, admitted); !bytes.Equal(stable, after) {
		t.Errorf("admitted batch is not byte-stable across a reusing decode: %d vs %d frame bytes", len(stable), len(after))
	}
}

// deepCloneRecords copies records with no shared backing memory at
// all — fresh string bytes and fresh CDN/bitrate arrays — so later
// comparisons cannot be fooled by a shared-but-corrupted alias.
func deepCloneRecords(recs []record.ViewRecord) []record.ViewRecord {
	out := make([]record.ViewRecord, len(recs))
	for i, r := range recs {
		c := r
		c.Publisher = strings.Clone(r.Publisher)
		c.VideoID = strings.Clone(r.VideoID)
		c.URL = strings.Clone(r.URL)
		c.Device = strings.Clone(r.Device)
		c.OS = strings.Clone(r.OS)
		c.UserAgent = strings.Clone(r.UserAgent)
		c.SDK = strings.Clone(r.SDK)
		c.SDKVersion = strings.Clone(r.SDKVersion)
		c.ISP = strings.Clone(r.ISP)
		c.ConnType = strings.Clone(r.ConnType)
		c.Geo = strings.Clone(r.Geo)
		c.ContentID = strings.Clone(r.ContentID)
		c.Owner = strings.Clone(r.Owner)
		if r.CDNs != nil {
			c.CDNs = make([]string, len(r.CDNs))
			for j, s := range r.CDNs {
				c.CDNs[j] = strings.Clone(s)
			}
		}
		if r.Bitrates != nil {
			c.Bitrates = append([]int(nil), r.Bitrates...)
		}
		out[i] = c
	}
	return out
}

// heapAlloc is the live heap after a full collection.
func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// allocatedBy reports the heap bytes fn allocates. Unlike a difference
// of two HeapAlloc readings it only counts up, so a reading taken while
// the runtime is between collections cannot shrink it.
func allocatedBy(fn func()) int64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return int64(after.TotalAlloc - before.TotalAlloc)
}

// pinnedBy reports how many heap bytes only *recs keeps alive, and
// drops them.
func pinnedBy(recs *[]record.ViewRecord) int64 {
	with := heapAlloc()
	*recs = nil
	return int64(with) - int64(heapAlloc())
}

// TestArenasSizedToTheBatch pins what admitted records may keep alive.
// Their CDN and bitrate lists are interned, each an array of its own of
// exactly its length, whatever the decoder met before: one decoder
// takes an 8,192-record batch (a checkpoint frame, a bulk client) and
// then a 10-record one (a WAL tail batch, a sensor), and the ten
// records must hold no more list bytes than their lists use — nothing
// of the first batch's. The yardstick is what a deep clone allocates,
// its lists one by one.
func TestArenasSizedToTheBatch(t *testing.T) {
	big, small := genRecords(8192), genRecords(10)
	var used int64
	for i := range small {
		used += int64(len(small[i].CDNs))*int64(unsafe.Sizeof("")) + int64(len(small[i].Bitrates))*int64(unsafe.Sizeof(0))
	}
	// Size-class rounding and whatever else the runtime allocates
	// between two readings.
	const noise = 1 << 10
	decoders := []struct {
		name   string
		decode func(*wire.Decoder, []record.ViewRecord) []record.ViewRecord
	}{
		{"binary", func(dec *wire.Decoder, recs []record.ViewRecord) []record.ViewRecord {
			got, err := dec.DecodeAll(bytes.NewReader(encodeFrames(t, recs)))
			if err != nil {
				t.Fatal(err)
			}
			return got
		}},
		{"jsonl", func(dec *wire.Decoder, recs []record.ViewRecord) []record.ViewRecord {
			got, bad, _, err := dec.ScanJSONL(bytes.NewReader(jsonlBody(t, recs)))
			if err != nil || bad != 0 {
				t.Fatalf("ScanJSONL: %d bad, err %v", bad, err)
			}
			return got
		}},
	}
	for _, c := range decoders {
		decode := c.decode
		t.Run(c.name, func(t *testing.T) {
			dec := wire.NewDecoder()
			if got := decode(dec, big); len(got) != len(big) {
				t.Fatalf("big batch: %d records", len(got))
			}
			admitted := append([]record.ViewRecord(nil), decode(dec, small)...)
			if !reflect.DeepEqual(admitted, small) {
				t.Fatal("the small batch did not survive the decode")
			}
			dec = nil
			yardstick := allocatedBy(func() { runtime.KeepAlive(deepCloneRecords(admitted)) })
			held := pinnedBy(&admitted)
			if held > yardstick+used+noise {
				t.Errorf("ten admitted records pin %d B; a deep clone of them is %d B and their lists use %d B", held, yardstick, used)
			}
		})
	}
}

// TestRecordsDoNotAliasTheBody: DecodeAll reads every frame into the
// one body buffer Frames hands out, and the next decode rewrites it —
// so no string, CDN list or bitrate ladder of a decoded record may
// point into it, however the body grew.
func TestRecordsDoNotAliasTheBody(t *testing.T) {
	dec := wire.NewDecoder()
	stream := append(encodeFrames(t, genRecords(64)), encodeFrames(t, genRecords(200))...)
	got, err := dec.DecodeAll(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	body := dec.Frames()
	if !bytes.Equal(body, stream) {
		t.Fatalf("Frames holds %d bytes, not the %d-byte stream", len(body), len(stream))
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(body)))
	hi := lo + uintptr(cap(body))
	inBody := func(p unsafe.Pointer) bool { return uintptr(p) >= lo && uintptr(p) < hi }
	for i := range got {
		v := reflect.ValueOf(got[i])
		for f := 0; f < v.NumField(); f++ {
			if s := v.Field(f); s.Kind() == reflect.String && s.Len() > 0 && inBody(unsafe.Pointer(unsafe.StringData(s.String()))) {
				t.Fatalf("record %d: %s points into the body buffer", i, v.Type().Field(f).Name)
			}
		}
		for _, c := range got[i].CDNs {
			if inBody(unsafe.Pointer(unsafe.StringData(c))) {
				t.Fatalf("record %d: a CDN name points into the body buffer", i)
			}
		}
		if inBody(unsafe.Pointer(unsafe.SliceData(got[i].CDNs))) || inBody(unsafe.Pointer(unsafe.SliceData(got[i].Bitrates))) {
			t.Fatalf("record %d: a list points into the body buffer", i)
		}
	}
}
