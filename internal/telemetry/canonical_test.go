package telemetry

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"time"

	"vmp/internal/simclock"
)

// referenceSort is CanonicalSort as it was before it sorted keys: the
// whole rows through sort.Slice, every comparison a CompareRecords. It
// is the oracle the key sort is held to.
func referenceSort(recs []ViewRecord) {
	sort.Slice(recs, func(i, j int) bool { return CompareRecords(&recs[i], &recs[j]) < 0 })
}

// requireSortsLikeReference sorts two copies of recs, one each way,
// and requires the same record at every position. "Same" is
// CompareRecords == 0: the order is total over every field, so two
// records it calls equal are interchangeable and neither sort promises
// which comes first.
func requireSortsLikeReference(t *testing.T, recs []ViewRecord) {
	t.Helper()
	got := append([]ViewRecord(nil), recs...)
	want := append([]ViewRecord(nil), recs...)
	CanonicalSort(got)
	referenceSort(want)
	for i := range want {
		if CompareRecords(&got[i], &want[i]) != 0 {
			t.Fatalf("position %d of %d: key sort has %v %q, sort.Slice(CompareRecords) has %v %q",
				i, len(want), got[i].Timestamp, got[i].VideoID, want[i].Timestamp, want[i].VideoID)
		}
	}
}

// edgeInstants are the timestamps where a single-integer key would
// break: UnixNano overflows outside 1678–2262, and the zero time is
// year 1.
func edgeInstants() []time.Time {
	now := simclock.Wall().Now() // what an in-process sensor stamps: it carries a monotonic reading
	return []time.Time{
		{},
		time.Date(1, 1, 1, 0, 0, 0, 1, time.UTC),
		time.Date(0, 12, 31, 23, 59, 59, 999999999, time.UTC),
		time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC),
		time.Date(1677, 9, 21, 0, 12, 43, 145224191, time.UTC), // one ns before UnixNano's range
		time.Date(2262, 4, 11, 23, 47, 16, 854775808, time.UTC),
		time.Unix(0, 0).UTC(),
		time.Unix(-1, 999999999).UTC(),
		time.Date(2016, 4, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2016, 4, 1, 2, 0, 0, 0, time.FixedZone("east", 2*3600)), // the same instant, another zone
		time.Date(2016, 4, 1, 0, 0, 0, 1, time.UTC),
		now,
		now.Add(-time.Nanosecond),
		now.Add(time.Hour),
		now.Round(0), // the same wall instant without the monotonic reading
	}
}

// sortShapes builds the inputs the differential test runs over.
func sortShapes() map[string][]ViewRecord {
	rng := rand.New(rand.NewSource(23))
	base := time.Date(2016, 4, 1, 0, 0, 0, 0, time.UTC)
	distinct := make([]ViewRecord, 3000)
	for i := range distinct {
		r := rec(fmt.Sprintf("p%d", i%7), 0, float64(60+i%900))
		r.Timestamp = base.Add(time.Duration(i) * 1500 * time.Millisecond)
		r.VideoID = fmt.Sprintf("v%04d", i)
		distinct[i] = r
	}
	reversed := make([]ViewRecord, len(distinct))
	for i := range distinct {
		reversed[len(distinct)-1-i] = distinct[i]
	}
	// What two connections posting alternate batches leave: two sorted
	// runs, one after the other.
	var interleaved []ViewRecord
	for conn := 0; conn < 2; conn++ {
		for lo := conn * 200; lo < len(distinct); lo += 400 {
			interleaved = append(interleaved, distinct[lo:min(lo+200, len(distinct))]...)
		}
	}
	shuffled := append([]ViewRecord(nil), distinct...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })

	// Fifty instants under three thousand records: the key decides
	// little and the rows are compared all the time.
	collide := make([]ViewRecord, 3000)
	for i := range collide {
		r := rec(fmt.Sprintf("p%d", rng.Intn(5)), rng.Intn(50), float64(rng.Intn(4)))
		r.VideoID = fmt.Sprintf("v%d", rng.Intn(3))
		r.CDNs = [][]string{nil, {"A"}, {"A", "B"}, {"B"}}[rng.Intn(4)]
		r.Bitrates = [][]int{nil, {400}, {400, 800}}[rng.Intn(3)]
		r.Live = rng.Intn(2) == 0
		collide[i] = r
	}
	var duplicates []ViewRecord
	for _, r := range collide[:400] {
		duplicates = append(duplicates, r, r, r)
	}
	rng.Shuffle(len(duplicates), func(i, j int) { duplicates[i], duplicates[j] = duplicates[j], duplicates[i] })

	var edges []ViewRecord
	for round := 0; round < 3; round++ {
		for i, ts := range edgeInstants() {
			r := rec(fmt.Sprintf("p%d", (i+round)%3), 0, float64(round))
			r.Timestamp = ts
			edges = append(edges, r)
		}
	}
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })

	return map[string][]ViewRecord{
		"empty":       nil,
		"one":         distinct[:1],
		"sorted":      distinct,
		"reversed":    reversed,
		"interleaved": interleaved,
		"shuffled":    shuffled,
		"collide":     collide,
		"duplicates":  duplicates,
		"edges":       edges,
	}
}

// TestCanonicalSortMatchesReference is the differential test: the key
// sort against sort.Slice over CompareRecords on every input shape a
// cut meets, and on the instants a decoder can hand over that do not
// fit a single integer.
func TestCanonicalSortMatchesReference(t *testing.T) {
	shapes := sortShapes()
	names := make([]string, 0, len(shapes))
	for name := range shapes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t.Run(name, func(t *testing.T) { requireSortsLikeReference(t, shapes[name]) })
	}
}

// fuzzRecords turns fuzz bytes into records, five bytes each: which of
// a few instants (so that ties are common), and small choices for the
// fields CompareRecords falls through to.
func fuzzRecords(data []byte) []ViewRecord {
	instants := edgeInstants()[:11] // the fixed ones; a monotonic reading differs run to run
	var recs []ViewRecord
	for ; len(data) >= 5; data = data[5:] {
		r := rec(fmt.Sprintf("p%d", data[1]%3), 0, float64(data[2]%4))
		r.Timestamp = instants[int(data[0])%len(instants)].Add(time.Duration(data[3]%3) * time.Nanosecond)
		r.CDNs = [][]string{nil, {"A"}, {"A", "B"}}[data[4]%3]
		r.Failed = data[4]&0x80 != 0
		recs = append(recs, r)
	}
	return recs
}

// FuzzCanonicalSort searches for an input the key sort and the
// reference order differently. `make fuzz-wire` gives it ten seconds.
func FuzzCanonicalSort(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0})
	f.Add([]byte{8, 1, 2, 0, 1, 8, 1, 2, 0, 1, 0, 0, 0, 0, 0, 3, 2, 1, 2, 0x82})
	ramp := make([]byte, 0, 5*64)
	for i := 0; i < 64; i++ {
		ramp = binary.LittleEndian.AppendUint32(ramp, uint32(i*2654435761))
		ramp = append(ramp, byte(i))
	}
	f.Add(ramp)
	f.Fuzz(func(t *testing.T, data []byte) {
		requireSortsLikeReference(t, fuzzRecords(data))
	})
}

// tiedRecords returns n records over few instants and few field
// values, every third one a duplicate of an earlier one: most keys tie
// on the instant and many rows on every field.
func tiedRecords(rng *rand.Rand, n int) []ViewRecord {
	instants := edgeInstants()[:11]
	recs := make([]ViewRecord, n)
	for i := range recs {
		if i > 0 && i%3 == 0 {
			recs[i] = recs[rng.Intn(i)]
			continue
		}
		r := rec(fmt.Sprintf("p%d", rng.Intn(4)), 0, float64(rng.Intn(3)))
		r.Timestamp = instants[rng.Intn(len(instants))].Add(time.Duration(rng.Intn(2)) * time.Nanosecond)
		r.VideoID = fmt.Sprintf("v%d", rng.Intn(3))
		r.CDNs = [][]string{nil, {"A"}, {"A", "B"}}[rng.Intn(3)]
		r.Failed = rng.Intn(2) == 0
		recs[i] = r
	}
	return recs
}

// TestParallelSortAndGatherMatchReference sends CanonicalSort and
// Gather through their multi-worker paths — every size at which the
// number of workers or the split between them changes, at two and four
// workers — over heavy ties and duplicate rows, and holds both to
// sort.Slice over CompareRecords. Gather's parts are cut at random
// lengths, empty ones among them.
func TestParallelSortAndGatherMatchReference(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(40))
	var sizes []int
	for w := 2; w <= 4; w++ {
		sizes = append(sizes, w*minRowsPerWorker-1, w*minRowsPerWorker, w*minRowsPerWorker+1)
	}
	sizes = append(sizes, 5*minRowsPerWorker+3)
	for _, procs := range []int{2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, n := range sizes {
			recs := tiedRecords(rng, n)
			want := append([]ViewRecord(nil), recs...)
			referenceSort(want)
			got := append([]ViewRecord(nil), recs...)
			CanonicalSort(got)
			requireSameOrder(t, fmt.Sprintf("CanonicalSort, GOMAXPROCS %d, %d records", procs, n), got, want)

			var parts [][]ViewRecord
			for lo := 0; lo < n; {
				hi := min(n, lo+rng.Intn(3*minRowsPerWorker/2))
				parts = append(parts, recs[lo:hi])
				lo = hi
			}
			ptrs := Gather(parts)
			if len(ptrs) != cap(ptrs) {
				t.Fatalf("Gather of %d records: len %d, cap %d", n, len(ptrs), cap(ptrs))
			}
			// Every pointer is to a row of the parts, each row once:
			// Gather copies no row.
			rows := make(map[*ViewRecord]bool, n)
			for i := range recs {
				rows[&recs[i]] = true
			}
			gathered := make([]ViewRecord, len(ptrs))
			for i, p := range ptrs {
				if !rows[p] {
					t.Fatalf("Gather of %d records: position %d points at no row of the parts, or at one twice", n, i)
				}
				delete(rows, p)
				gathered[i] = *p
			}
			requireSameOrder(t, fmt.Sprintf("Gather, GOMAXPROCS %d, %d records in %d parts", procs, n, len(parts)), gathered, want)
		}
	}
}

// requireSameOrder requires got and want to hold interchangeable
// records (CompareRecords == 0) at every position.
func requireSameOrder(t *testing.T, what string, got, want []ViewRecord) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", what, len(got), len(want))
	}
	for i := range want {
		if CompareRecords(&got[i], &want[i]) != 0 {
			t.Fatalf("%s: position %d has %v %q, the reference %v %q",
				what, i, got[i].Timestamp, got[i].Publisher, want[i].Timestamp, want[i].Publisher)
		}
	}
}

// TestCanonicalSortAllocsAreConstant pins the sort's memory: the key
// array and nothing per record — the comparison closure and the row
// held while a cycle is walked stay on the stack.
func TestCanonicalSortAllocsAreConstant(t *testing.T) {
	shuffled := sortShapes()["shuffled"]
	allocs := func(n int) float64 {
		recs := make([]ViewRecord, n)
		return testing.AllocsPerRun(10, func() {
			copy(recs, shuffled[:n])
			CanonicalSort(recs)
		})
	}
	small, large := allocs(30), allocs(3000)
	if small != large || large > 1 {
		t.Errorf("CanonicalSort allocates %.0f times for 30 records and %.0f for 3000, want one key array for either", small, large)
	}
}

// mallocsAt returns the fewest heap allocations any of five calls of f
// made at GOMAXPROCS procs, counted by runtime.MemStats.Mallocs:
// testing.AllocsPerRun would set GOMAXPROCS to 1 and never reach the
// multi-worker path. The fewest, because the counter is process-wide.
func mallocsAt(procs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	var before, after runtime.MemStats
	fewest := uint64(math.MaxUint64)
	for i := 0; i < 5; i++ {
		runtime.GC()
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		fewest = min(fewest, after.Mallocs-before.Mallocs)
	}
	return fewest
}

// TestParallelAllocsDoNotGrowWithRecords pins the multi-worker sort,
// gather and freeze at two workers to allocations per worker, not per
// record: four times the records, over the same names, allocate no
// more — give or take two, for what the runtime allocates on its own
// now and then (a goroutine's descriptor when none is free to reuse).
func TestParallelAllocsDoNotGrowWithRecords(t *testing.T) {
	recsOf := func(n int) []ViewRecord {
		recs := make([]ViewRecord, n)
		base := time.Date(2016, 4, 1, 0, 0, 0, 0, time.UTC)
		for i := range recs {
			r := rec(fmt.Sprintf("p%d", i%7), 0, float64(60+i%900))
			r.Timestamp = base.Add(time.Duration(i*7919%n) * time.Second)
			r.Device = []string{"Roku", "iPhone", "Toaster"}[i%3]
			r.CDNs = [][]string{{"A"}, {"A", "B"}, nil}[i%3]
			recs[i] = r
		}
		return recs
	}
	stages := []struct {
		name string
		run  func(recs, scratch []ViewRecord)
	}{
		{"CanonicalSort", func(recs, scratch []ViewRecord) {
			copy(scratch, recs)
			CanonicalSort(scratch)
		}},
		{"Gather", func(recs, _ []ViewRecord) {
			Gather([][]ViewRecord{recs[:len(recs)/3], recs[len(recs)/3:]})
		}},
		{"freeze", func(recs, _ []ViewRecord) { NewDataset(recs) }},
	}
	for _, st := range stages {
		count := func(n int) uint64 {
			recs := recsOf(n)
			if st.name == "freeze" {
				CanonicalSort(recs)
			}
			scratch := make([]ViewRecord, n)
			return mallocsAt(2, func() { st.run(recs, scratch) })
		}
		small, large := count(2*minRowsPerWorker), count(8*minRowsPerWorker)
		t.Logf("%s at two workers: %d allocations for %d records, %d for %d", st.name, small, 2*minRowsPerWorker, large, 8*minRowsPerWorker)
		if large > small+2 {
			t.Errorf("%s at two workers allocates %d times for %d records and %d for %d, want no more for more records",
				st.name, small, 2*minRowsPerWorker, large, 8*minRowsPerWorker)
		}
	}
}

// TestFreezeAllocsDoNotGrowWithDistinctURLs pins that the freeze pays
// per distinct dimension value, not per distinct URL: a URL is nearly
// unique per view, and a memo keyed by it grew to one entry per record
// on every full rebuild.
func TestFreezeAllocsDoNotGrowWithDistinctURLs(t *testing.T) {
	const n = 4000
	allocs := func(distinctURLs int) float64 {
		recs := make([]ViewRecord, n)
		for i := range recs {
			r := rec(fmt.Sprintf("p%d", i%7), i%40, 120)
			r.URL = fmt.Sprintf("http://cdn-a.example.net/p/v%05d/master.m3u8", i%distinctURLs)
			r.VideoID = fmt.Sprintf("v%05d", i)
			recs[i] = r
		}
		CanonicalSort(recs)
		return testing.AllocsPerRun(5, func() {
			if NewDataset(recs).Len() != n {
				t.Fatal("short dataset")
			}
		})
	}
	one, all := allocs(1), allocs(n)
	if all > one {
		t.Errorf("freezing %d records allocates %.0f times with one URL and %.0f with %d", n, one, all, n)
	}
}
