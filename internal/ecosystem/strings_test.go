package ecosystem

import (
	"reflect"
	"slices"
	"strconv"
	"testing"
	"unsafe"
)

// TestGeneratedStringsAreShared pins the generator's one string per
// distinct value: across a whole store, every record with the same
// (publisher, URL), the same VideoID or the same user agent points at
// the same bytes, so the records' strings cost a distinct value's
// bytes once, not once per record.
func TestGeneratedStringsAreShared(t *testing.T) {
	recs := New(Config{SnapshotStride: 24}).GenerateStore().All()
	for _, field := range []struct {
		name string
		key  func(i int) (key, s string)
	}{
		{"URL", func(i int) (string, string) { return recs[i].Publisher + " " + recs[i].URL, recs[i].URL }},
		{"VideoID", func(i int) (string, string) { return recs[i].VideoID, recs[i].VideoID }},
		{"UserAgent", func(i int) (string, string) { return recs[i].UserAgent, recs[i].UserAgent }},
	} {
		backing := map[string]*byte{}
		for i := range recs {
			key, s := field.key(i)
			if s == "" {
				continue
			}
			p, seen := backing[key]
			if !seen {
				backing[key] = unsafe.StringData(s)
			} else if p != unsafe.StringData(s) {
				t.Fatalf("record %d's %s %q has bytes of its own; an earlier record's are at %p", i, field.name, s, p)
			}
		}
		if len(backing) < 40 {
			t.Fatalf("%d distinct %s values; the check needs a store that repeats them", len(backing), field.name)
		}
	}
}

// TestRecordsShareNoAppendableSlices holds what lets records share CDN
// and bitrate lists: each shared list's capacity is its length, so an
// append to one record's list copies and leaves every other record of
// the store as it was.
func TestRecordsShareNoAppendableSlices(t *testing.T) {
	recs := New(Config{SnapshotStride: 24}).GenerateStore().All()
	cdns := make([][]string, len(recs))
	bitrates := make([][]int, len(recs))
	for i := range recs {
		cdns[i] = slices.Clone(recs[i].CDNs)
		bitrates[i] = slices.Clone(recs[i].Bitrates)
	}
	for i := range recs {
		recs[i].CDNs = append(recs[i].CDNs, "appended-"+strconv.Itoa(i))
		recs[i].Bitrates = append(recs[i].Bitrates, -i)
	}
	for i := range recs {
		if want := append(cdns[i], "appended-"+strconv.Itoa(i)); !reflect.DeepEqual(recs[i].CDNs, want) {
			t.Fatalf("record %d's CDNs are %q after appends to every record, want %q", i, recs[i].CDNs, want)
		}
		if want := append(bitrates[i], -i); !reflect.DeepEqual(recs[i].Bitrates, want) {
			t.Fatalf("record %d's Bitrates are %v after appends to every record, want %v", i, recs[i].Bitrates, want)
		}
	}
}
