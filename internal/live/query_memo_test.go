package live

import (
	"bytes"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"vmp/internal/analytics"
	"vmp/internal/obs"
	"vmp/internal/simclock"
	"vmp/internal/telemetry"
)

// The query functions answer from the Dataset after the first asking.
// These tests hold that to the only thing that matters: whatever is
// asked, however often, of whichever generation, by however many
// callers at once, the bytes are those of a scan of a fresh rebuild.

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := MarshalResponse(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestMemoHammer retains every generation of a run of cuts and has
// readers cycle the full query mix over all of them — newest first, so
// every fresh Dataset's first askings collide — while ingest and the
// cuts go on. Every answer must equal the one a rebuild of that
// generation's records gives. Run under -race it is also the proof
// that a published Dataset's table is safe to fill from many
// goroutines.
func TestMemoHammer(t *testing.T) {
	const cuts, readers = 24, 8
	type retained struct {
		g    *Generation
		want [][]byte
	}
	var (
		mu   sync.Mutex
		gens []retained
	)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				mu.Lock()
				held := append([]retained(nil), gens...)
				mu.Unlock()
				for i := len(held) - 1; i >= 0; i-- {
					got, _, err := askMix(held[i].g.Dataset)
					if err != nil {
						t.Error(err)
						return
					}
					for q := range got {
						if !bytes.Equal(got[q], held[i].want[q]) {
							t.Errorf("epoch %d query %d answers\n%s, rebuild answers\n%s",
								held[i].g.Epoch, q, got[q], held[i].want[q])
							return
						}
					}
				}
			}
		}()
	}
	rng := rand.New(rand.NewSource(7))
	e := newTestEngine(t, Config{})
	var all []telemetry.ViewRecord
	for cut := 0; cut < cuts; cut++ {
		delta := randomDelta(rng, cut, cuts, all)
		mustIngest(t, e, delta)
		all = append(all, delta...)
		g := e.Snapshot()
		// The reference is built from the generation's own records, and
		// asked before the readers can see the generation, on a Dataset
		// nobody else holds.
		want, _ := diffQueries(t, rebuild(g.Dataset.All()))
		mu.Lock()
		gens = append(gens, retained{g, want})
		mu.Unlock()
	}
	close(stop)
	wg.Wait()
	// Every reader has gone; whatever they left on the generations must
	// still be the right answers.
	for _, r := range gens {
		got, _ := diffQueries(t, r.g.Dataset)
		for q := range got {
			if !bytes.Equal(got[q], r.want[q]) {
				t.Errorf("epoch %d query %d, final sweep, answers\n%s, rebuild answers\n%s", r.g.Epoch, q, got[q], r.want[q])
			}
		}
	}
}

// TestMemoOnceSemantics: concurrent first callers on a fresh Dataset
// get the same response value — one scan between them, not one each.
func TestMemoOnceSemantics(t *testing.T) {
	ds := telemetry.NewDataset(genRecords(5000))
	const callers = 12
	shares := make([]*ShareResponse, callers)
	windows := make([]*WindowResponse, callers)
	tops := make([]*TopPublishersResponse, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			var err error
			if shares[i], err = ShareOver(ds, "cdn", "views"); err != nil {
				t.Error(err)
			}
			windows[i] = WindowOver(ds, simclock.DayTime(3), 4)
			tops[i] = TopPublishersOver(ds, 5)
		}()
	}
	close(start)
	wg.Wait()
	for i := 1; i < callers; i++ {
		if shares[i] != shares[0] {
			t.Fatalf("caller %d got its own share response", i)
		}
		if windows[i] != windows[0] {
			t.Fatalf("caller %d got its own window response", i)
		}
		if &tops[i].Top[0] != &tops[0].Top[0] {
			t.Fatalf("caller %d got its own ranking", i)
		}
	}
}

// TestMemoWindowOverflow asks for more distinct windows than a Dataset
// keeps. Every answer is still the scan's; the windows past the cap
// are never kept, the ones before it stay, and the closed-vocabulary
// answers are neither displaced nor refused a slot.
func TestMemoWindowOverflow(t *testing.T) {
	ds := telemetry.NewDataset(genRecords(3000))
	if _, how, _ := shareOver(ds, "protocol", ""); how != telemetry.DerivedMiss {
		t.Fatalf("first share: how=%v", how)
	}
	const asked = 300
	window := func(i int) (time.Time, int) {
		return simclock.DayTime(i % 50).Add(time.Duration(i) * time.Nanosecond), 1 + i%5
	}
	kept := -1
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < asked; i++ {
			start, days := window(i)
			resp, how := windowOver(ds, start, days)
			if want := scanWindow(ds, start, days); !reflect.DeepEqual(resp, want) {
				t.Fatalf("pass %d window %d: %+v, a fresh scan gives %+v", pass, i, resp, want)
			}
			switch {
			case pass == 0 && kept < 0 && how == telemetry.DerivedUncached:
				kept = i // the first window refused a slot: the cap
			case pass == 0 && kept < 0 && how != telemetry.DerivedMiss:
				t.Fatalf("window %d, first asking below the cap: how=%v", i, how)
			case pass == 1 && i < kept && how != telemetry.DerivedHit:
				t.Fatalf("window %d of %d kept, second asking: how=%v", i, kept, how)
			case i >= kept && kept >= 0 && how != telemetry.DerivedUncached:
				t.Fatalf("window %d past the cap %d, pass %d: how=%v, want uncached", i, kept, pass, how)
			}
		}
		if kept < 1 || kept >= asked {
			t.Fatalf("cap found at %d of %d distinct windows", kept, asked)
		}
	}
	if _, how, _ := shareOver(ds, "protocol", "viewhours"); how != telemetry.DerivedHit {
		t.Fatalf("share asked before the overflow: how=%v, want a hit", how)
	}
	for _, want := range []telemetry.Derivation{telemetry.DerivedMiss, telemetry.DerivedHit} {
		if _, how, _ := shareOver(ds, "cdn", "views"); how != want {
			t.Fatalf("share first asked after the overflow: how=%v, want %v", how, want)
		}
		if _, how := topPublishersOver(ds, 3); how != want {
			t.Fatalf("top first asked after the overflow: how=%v, want %v", how, want)
		}
	}
}

// TestMemoKeySpace: what a client can put in a query never widens the
// set of slots. Bad parameters are refused before they are keys,
// by="" is by="viewhours", and n is not a key at all.
func TestMemoKeySpace(t *testing.T) {
	recs := genRecords(4000)
	fresh := func() *telemetry.Dataset {
		return telemetry.NewDataset(append([]telemetry.ViewRecord(nil), recs...))
	}
	ds := fresh()
	if _, _, err := shareOver(ds, "geo", ""); err == nil {
		t.Fatal("unknown dim accepted")
	}
	if _, _, err := shareOver(ds, "cdn", "bytes"); err == nil {
		t.Fatal("unknown measure accepted")
	}
	a, how, err := shareOver(ds, "cdn", "")
	if err != nil || how != telemetry.DerivedMiss {
		t.Fatalf("by=\"\": how=%v err=%v, want the dataset's first share scan", how, err)
	}
	b, how, err := shareOver(ds, "cdn", "viewhours")
	if err != nil || how != telemetry.DerivedHit || a != b {
		t.Fatalf("by=viewhours after by=\"\": how=%v err=%v same=%v, want the same slot", how, err, a == b)
	}
	if a.By != "viewhours" {
		t.Fatalf("by=\"\" answered by=%q", a.By)
	}

	nPubs := ds.NumPublishers()
	for i, n := range []int{1, 10, nPubs + 5, 0, -3} {
		got, how := topPublishersOver(ds, n)
		if i > 0 && how != telemetry.DerivedHit {
			t.Fatalf("n=%d after a ranking exists: how=%v", n, how)
		}
		want := TopPublishersOver(fresh(), n)
		if !bytes.Equal(mustMarshal(t, got), mustMarshal(t, want)) {
			t.Fatalf("n=%d from the kept ranking:\n%s, a fresh scan gives\n%s", n, mustMarshal(t, got), mustMarshal(t, want))
		}
		if wantLen := min(want.N, nPubs); len(got.Top) != wantLen || cap(got.Top) != wantLen {
			t.Fatalf("n=%d: top has len %d cap %d, want %d and no spare capacity over the shared ranking", n, len(got.Top), cap(got.Top), wantLen)
		}
	}
	empty := TopPublishersOver(telemetry.NewDataset(nil), 10)
	if got := string(mustMarshal(t, empty)); got != `{"n":10,"records":0,"total_view_hours":0,"top":[]}`+"\n" {
		t.Fatalf("empty dataset top = %s", got)
	}

	// One instant, two spellings: one slot.
	utc := simclock.DayTime(5)
	w1, how1 := windowOver(ds, utc, 2)
	w2, how2 := windowOver(ds, utc.In(time.FixedZone("east", 3*3600)), 2)
	if how1 != telemetry.DerivedMiss || how2 != telemetry.DerivedHit || w1 != w2 {
		t.Fatalf("same instant in two zones: how=%v,%v same=%v", how1, how2, w1 == w2)
	}
	// days <= 0 is days = 1.
	d1, _ := windowOver(ds, utc, 1)
	if d0, how := windowOver(ds, utc, 0); how != telemetry.DerivedHit || d0 != d1 {
		t.Fatalf("days=0 after days=1: how=%v same=%v", how, d0 == d1)
	}
}

// TestMemoHitAllocs pins the hit path: nothing proportional to the
// dataset, and no more than the response header a caller-specific n
// needs (top) or the boxed key (window). The last two cases are the
// scans behind a miss — the share kernel with an exclusion mask and
// the window summary, over all 20 000 rows: a fixed handful of
// accumulators and the result, nothing per row.
func TestMemoHitAllocs(t *testing.T) {
	ds := telemetry.NewDataset(genRecords(20000))
	start := simclock.DayTime(10)
	exclude := make([]bool, ds.NumPublishers())
	exclude[0] = true
	for _, c := range []struct {
		name string
		max  float64
		ask  func()
	}{
		{"share", 0, func() { _, _ = ShareOver(ds, "platform", "views") }},
		{"top-publishers", 1, func() { _ = TopPublishersOver(ds, 10) }},
		{"window", 1, func() { _ = WindowOver(ds, start, 2) }},
		{"share scan", 16, func() { _ = analytics.ShareOverRows(ds, ds.CDNCol(), 0, ds.Len(), exclude, false) }},
		{"window scan", 16, func() { _ = scanWindow(ds, simclock.DayTime(0), 60) }},
	} {
		c.ask() // the miss
		if got := testing.AllocsPerRun(200, c.ask); got > c.max {
			t.Errorf("%s hit: %v allocs/op, want at most %v", c.name, got, c.max)
		}
	}
}

func counters(e *Engine) (hits, misses, uncached int64) {
	c := e.Metrics().Snapshot().Counters
	return c["live_query_memo_hits_total"], c["live_query_memo_misses_total"], c["live_query_memo_uncached_total"]
}

// TestServerMemoCountersAndSpans drives the HTTP surface: the first
// asking of a generation is a counted miss with memo=0 on its span, the
// second a counted hit with memo=1 and the same bytes; a request that
// is refused moves no counter; a cut starts over; and both metrics
// renderings carry the counters.
func TestServerMemoCountersAndSpans(t *testing.T) {
	tr := obs.NewTracer(simclock.NewManual(simclock.StudyStart), 256)
	_, srv, e := newTestServer(t, Config{Trace: tr})
	client := srv.Client()
	mustIngest(t, e, genRecords(2000))
	e.Snapshot()

	paths := []string{
		"/v1/query/share?dim=platform",
		"/v1/query/top-publishers?n=3",
		"/v1/query/window?start=" + simclock.DayTime(2).Format("2006-01-02") + "&days=3",
	}
	for i, path := range paths {
		first := getBody(t, client, srv.URL+path)
		second := getBody(t, client, srv.URL+path)
		if !bytes.Equal(first, second) {
			t.Fatalf("%s: second answer differs\n%s\n%s", path, first, second)
		}
		if hits, misses, uncached := counters(e); hits != int64(i+1) || misses != int64(i+1) || uncached != 0 {
			t.Fatalf("after %s twice: hits=%d misses=%d uncached=%d", path, hits, misses, uncached)
		}
	}
	// by="" on the wire is by=viewhours: already asked, a hit.
	getBody(t, client, srv.URL+"/v1/query/share?dim=platform&by=viewhours")
	// n is not a key.
	getBody(t, client, srv.URL+"/v1/query/top-publishers?n=7")
	if hits, misses, _ := counters(e); hits != 5 || misses != 3 {
		t.Fatalf("after by=viewhours and n=7: hits=%d misses=%d, want 5 and 3", hits, misses)
	}
	for _, bad := range []string{
		"/v1/query/share?dim=geo",
		"/v1/query/share?dim=cdn&by=bytes",
		"/v1/query/top-publishers?n=0",
		"/v1/query/top-publishers?n=many",
		"/v1/query/window?start=yesterday",
		"/v1/query/window?start=2018-03-01&days=-1",
	} {
		resp, err := client.Get(srv.URL + bad)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET %s = %s, want 400", bad, resp.Status)
		}
	}
	if hits, misses, uncached := counters(e); hits != 5 || misses != 3 || uncached != 0 {
		t.Fatalf("refused requests moved the memo counters: hits=%d misses=%d uncached=%d", hits, misses, uncached)
	}

	memo := map[string][]int64{}
	for _, sp := range tr.Snapshot().Spans {
		if v, ok := sp.Attrs["memo"]; ok {
			memo[sp.Name] = append(memo[sp.Name], v)
		}
	}
	want := map[string][]int64{
		"query.share":          {0, 1, 1},
		"query.top-publishers": {0, 1, 1},
		"query.window":         {0, 1},
	}
	if !reflect.DeepEqual(memo, want) {
		t.Fatalf("memo span attributes %v, want %v", memo, want)
	}

	// A cut with new records publishes a Dataset nobody has asked yet.
	mustIngest(t, e, genRecords(100))
	e.Snapshot()
	getBody(t, client, srv.URL+paths[0])
	if hits, misses, _ := counters(e); hits != 5 || misses != 4 {
		t.Fatalf("first asking after a cut: hits=%d misses=%d, want 5 and 4", hits, misses)
	}
	for _, ep := range []string{"/v1/metrics", "/metrics"} {
		body := getBody(t, client, srv.URL+ep)
		for _, name := range []string{"live_query_memo_hits_total", "live_query_memo_misses_total", "live_query_memo_uncached_total"} {
			if !bytes.Contains(body, []byte(name)) {
				t.Fatalf("%s does not carry %s", ep, name)
			}
		}
	}
}

// cutOnWrite is a ResponseWriter under which the world moves on: the
// moment the answer is written, a new generation is published.
type cutOnWrite struct {
	*httptest.ResponseRecorder
	cut func()
}

func (w *cutOnWrite) Write(b []byte) (int, error) {
	n, err := w.ResponseRecorder.Write(b)
	w.cut()
	return n, err
}

// TestQuerySpanNamesTheAnsweringEpoch: a cut that lands while the
// response is being written must not relabel the span — its epoch is
// the generation the answer was read from.
func TestQuerySpanNamesTheAnsweringEpoch(t *testing.T) {
	tr := obs.NewTracer(simclock.NewManual(simclock.StudyStart), 64)
	e := newTestEngine(t, Config{Trace: tr})
	mustIngest(t, e, genRecords(500))
	answering := e.Snapshot().Epoch
	mustIngest(t, e, genRecords(50))
	w := &cutOnWrite{httptest.NewRecorder(), func() { e.Snapshot() }}
	NewServer(e).Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/query/share?dim=cdn", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	if now := e.Generation().Epoch; now != answering+1 {
		t.Fatalf("the cut did not land: epoch %d", now)
	}
	for _, sp := range tr.Snapshot().Spans {
		if sp.Name == "query.share" {
			if got := sp.Attrs["epoch"]; got != answering {
				t.Fatalf("query.share span says epoch %d, the answer came from epoch %d", got, answering)
			}
			return
		}
	}
	t.Fatal("no query.share span")
}
