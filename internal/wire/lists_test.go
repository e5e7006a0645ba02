package wire_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"vmp/internal/telemetry/record"
	"vmp/internal/wire"
)

// decodeArms decodes recs on dec the three ways a list reaches a
// record: a binary frame, a JSONL line the fast parser takes, and one
// that falls back to encoding/json (an escaped ampersand in pub).
var decodeArms = []struct {
	name   string
	decode func(testing.TB, *wire.Decoder, []record.ViewRecord) []record.ViewRecord
}{
	{"binary", func(t testing.TB, dec *wire.Decoder, recs []record.ViewRecord) []record.ViewRecord {
		got, err := dec.DecodeAll(bytes.NewReader(encodeFrames(t, recs)))
		if err != nil {
			t.Fatal(err)
		}
		return got
	}},
	{"jsonl", func(t testing.TB, dec *wire.Decoder, recs []record.ViewRecord) []record.ViewRecord {
		got, bad, fallback, err := dec.ScanJSONL(bytes.NewReader(jsonlBody(t, recs)))
		if err != nil || bad != 0 || fallback != 0 {
			t.Fatalf("ScanJSONL: %d bad, %d fallback, err %v", bad, fallback, err)
		}
		return got
	}},
	{"jsonl_fallback", func(t testing.TB, dec *wire.Decoder, recs []record.ViewRecord) []record.ViewRecord {
		escaped := append([]record.ViewRecord(nil), recs...)
		for i := range escaped {
			escaped[i].Publisher += "&"
		}
		got, bad, fallback, err := dec.ScanJSONL(bytes.NewReader(jsonlBody(t, escaped)))
		if err != nil || bad != 0 || fallback != len(recs) {
			t.Fatalf("ScanJSONL: %d bad, %d fallback of %d, err %v", bad, fallback, len(recs), err)
		}
		return got
	}},
}

// TestEqualListsShareOneArray: the decoder interns lists, so two
// requests that carry the same CDN list and bitrate ladder hand their
// records one array of each, whichever arm decoded them.
func TestEqualListsShareOneArray(t *testing.T) {
	for _, arm := range decodeArms {
		t.Run(arm.name, func(t *testing.T) {
			dec := wire.NewDecoder()
			first := append([]record.ViewRecord(nil), arm.decode(t, dec, genRecords(8))...)
			second := arm.decode(t, dec, genRecords(30)[20:])
			a, b := first[0], second[0] // genRecords' lists repeat every 20 records
			if !reflect.DeepEqual(a.CDNs, b.CDNs) || !reflect.DeepEqual(a.Bitrates, b.Bitrates) || len(a.CDNs) == 0 || len(a.Bitrates) == 0 {
				t.Fatalf("records %v/%v and %v/%v: the test wants equal, non-empty lists", a.CDNs, a.Bitrates, b.CDNs, b.Bitrates)
			}
			if unsafe.SliceData(a.CDNs) != unsafe.SliceData(b.CDNs) {
				t.Errorf("CDN list %v decoded from two requests is two arrays", a.CDNs)
			}
			if unsafe.SliceData(a.Bitrates) != unsafe.SliceData(b.Bitrates) {
				t.Errorf("bitrate ladder %v decoded from two requests is two arrays", a.Bitrates)
			}
		})
	}
}

// TestInternedListsAreCapped: every list a decode hands out has no
// spare capacity, so a holder's append copies it rather than writing
// into an array the cache shares with other records.
func TestInternedListsAreCapped(t *testing.T) {
	for _, arm := range decodeArms {
		t.Run(arm.name, func(t *testing.T) {
			dec := wire.NewDecoder()
			arm.decode(t, dec, genRecords(40)) // the second decode hits the cache
			got := append([]record.ViewRecord(nil), arm.decode(t, dec, genRecords(40))...)
			for i, r := range got {
				if len(r.CDNs) != cap(r.CDNs) || len(r.Bitrates) != cap(r.Bitrates) {
					t.Fatalf("record %d: CDNs len %d cap %d, bitrates len %d cap %d", i, len(r.CDNs), cap(r.CDNs), len(r.Bitrates), cap(r.Bitrates))
				}
			}
			a, b := got[0], got[20] // the same lists
			grownA, grownB := append(a.Bitrates, 1), append(b.Bitrates, 2)
			grownC := append(a.CDNs, "x")
			_ = append(b.CDNs, "y")
			if grownA[len(a.Bitrates)] != 1 || grownB[len(b.Bitrates)] != 2 || grownC[len(a.CDNs)] != "x" {
				t.Fatal("appends to two records' shared lists wrote one array")
			}
			if want := genRecords(1)[0]; !reflect.DeepEqual(a.CDNs, want.CDNs) || !reflect.DeepEqual(a.Bitrates, want.Bitrates) {
				t.Fatalf("an append changed a shared list: %v %v", a.CDNs, a.Bitrates)
			}
		})
	}
}

// TestUniqueLaddersLeaveTheDecoderFixed: a stream of lists the decoder
// has never met — every ladder and CDN list unique — evicts from the
// caches and never grows them past their slots.
func TestUniqueLaddersLeaveTheDecoderFixed(t *testing.T) {
	for _, arm := range decodeArms[:2] {
		t.Run(arm.name, func(t *testing.T) {
			dec := wire.NewDecoder()
			var bound int
			for batch := 0; batch < 20; batch++ {
				recs := genRecords(500)
				for i := range recs {
					u := batch*len(recs) + i
					recs[i].Bitrates = []int{u, u + 1, u + 2}
					recs[i].CDNs = []string{fmt.Sprintf("cdn-%d", u)}
				}
				arm.decode(t, dec, recs)
				lists, elems := dec.CachedLists()
				if lists > 2*wire.ListSlots || elems > wire.ListSlots*(3+1) {
					t.Fatalf("after %d unique lists the caches hold %d lists of %d elements; they have %d slots of each kind", 2*(batch+1)*len(recs), lists, elems, wire.ListSlots)
				}
				if batch == 4 {
					bound = elems
				}
				if batch > 4 && elems > bound+bound/4 {
					t.Fatalf("batch %d: the caches hold %d elements, %d at batch 4", batch, elems, bound)
				}
			}
		})
	}
}

// TestListNullAndEmptyMatchEncodingJSON: JSONL null leaves a list nil
// and [] makes it empty but not nil, as encoding/json does, on the fast
// parser and its fallback both.
func TestListNullAndEmptyMatchEncodingJSON(t *testing.T) {
	lines := []string{
		`{"pub":"a","cdns":null,"bitrates":[]}`,
		`{"pub":"a","cdns":[],"bitrates":null}`,
		`{"pub":"a","cdns":[ ],"bitrates":[ ]}`,
		`{"pub":"a"}`,
		`{"pub":"a","cdns":["x"],"bitrates":[1]}`,
	}
	for _, line := range lines {
		for _, body := range []string{line, strings.Replace(line, `"a"`, `"a\u0026"`, 1)} {
			var want record.ViewRecord
			if err := json.Unmarshal([]byte(body), &want); err != nil {
				t.Fatal(err)
			}
			dec := wire.NewDecoder()
			for pass := 0; pass < 2; pass++ { // the second over a warm cache
				got, bad, fallback, err := dec.ScanJSONL(strings.NewReader(body + "\n"))
				if err != nil || bad != 0 || len(got) != 1 || (fallback == 1) != strings.Contains(body, `\u`) {
					t.Fatalf("%s: %d records, %d bad, %d fallback, err %v", body, len(got), bad, fallback, err)
				}
				if !reflect.DeepEqual(got[0], want) {
					t.Fatalf("%s: CDNs %#v, bitrates %#v; encoding/json gives %#v, %#v", body, got[0].CDNs, got[0].Bitrates, want.CDNs, want.Bitrates)
				}
			}
		}
	}
}
