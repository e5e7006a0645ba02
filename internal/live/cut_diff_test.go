package live

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"vmp/internal/simclock"
	"vmp/internal/telemetry"
)

// The epoch cut extends the published Dataset by merge; the trivially
// correct way to publish the same records is to sort a copy of all of
// them and freeze it. This file holds the cut to that: after every cut
// of a randomized schedule the two datasets must agree row for row and
// answer for answer.

// rebuild is the reference: every record ever admitted, canonically
// sorted, frozen from scratch.
func rebuild(all []telemetry.ViewRecord) *telemetry.Dataset {
	sorted := append([]telemetry.ViewRecord(nil), all...)
	telemetry.CanonicalSort(sorted)
	return telemetry.NewDataset(sorted)
}

// askMix asks ds the serving plane's query vocabulary at the shapes the
// bench gates on — share × {protocol, platform, cdn} × {viewhours,
// views}, top publishers, one window — and returns each answer's
// canonical bytes and how it was come by.
func askMix(ds *telemetry.Dataset) (answers [][]byte, how []telemetry.Derivation, err error) {
	add := func(v any, h telemetry.Derivation) {
		b, merr := MarshalResponse(v)
		err = errors.Join(err, merr)
		answers, how = append(answers, b), append(how, h)
	}
	for _, dim := range queryDims {
		for _, by := range []string{"viewhours", "views"} {
			resp, h, serr := shareOver(ds, dim, by)
			if serr != nil {
				return nil, nil, serr
			}
			add(resp, h)
		}
	}
	add(topPublishersOver(ds, 10))
	add(windowOver(ds, simclock.DayTime(20), 7))
	return answers, how, err
}

func diffQueries(t *testing.T, ds *telemetry.Dataset) ([][]byte, []telemetry.Derivation) {
	t.Helper()
	answers, how, err := askMix(ds)
	if err != nil {
		t.Fatal(err)
	}
	return answers, how
}

// rowNames resolves row i of a column to dimension values: IDs may be
// numbered differently by a merge and a rebuild, names may not differ.
func rowNames(col *telemetry.DimColumn, i int) []string {
	names := []string{}
	for _, id := range col.IDs(i) {
		names = append(names, col.Name(id))
	}
	return names
}

func nameSet(col *telemetry.DimColumn) map[string]bool {
	set := map[string]bool{}
	for id := 0; id < col.Cardinality(); id++ {
		set[col.Name(int32(id))] = true
	}
	return set
}

func requireSameDataset(t *testing.T, cut int, got, want *telemetry.Dataset) {
	t.Helper()
	if got.Len() != want.Len() || (want.Len() > 0 && !reflect.DeepEqual(got.All(), want.All())) {
		t.Fatalf("cut %d: records differ from the rebuild (%d vs %d)", cut, got.Len(), want.Len())
	}
	if got.NumPublishers() != want.NumPublishers() {
		t.Fatalf("cut %d: %d publishers, rebuild has %d", cut, got.NumPublishers(), want.NumPublishers())
	}
	type colPair struct {
		name      string
		got, want *telemetry.DimColumn
	}
	cols := []colPair{
		{"protocol", got.ProtocolCol(), want.ProtocolCol()},
		{"platform", got.PlatformCol(), want.PlatformCol()},
		{"cdn", got.CDNCol(), want.CDNCol()},
	}
	for _, platform := range []string{"Browser", "Mobile", "SetTop", "SmartTV", "Console", "NoSuchPlatform"} {
		cols = append(cols, colPair{"device/" + platform, got.DeviceCol(platform), want.DeviceCol(platform)})
	}
	for _, c := range cols {
		if !reflect.DeepEqual(nameSet(c.got), nameSet(c.want)) {
			t.Fatalf("cut %d: %s names %v, rebuild has %v", cut, c.name, nameSet(c.got), nameSet(c.want))
		}
	}
	for i := 0; i < want.Len(); i++ {
		if got.ViewsAt(i) != want.ViewsAt(i) || got.ViewHoursAt(i) != want.ViewHoursAt(i) {
			t.Fatalf("cut %d row %d: measures (%v, %v), rebuild has (%v, %v)", cut, i,
				got.ViewsAt(i), got.ViewHoursAt(i), want.ViewsAt(i), want.ViewHoursAt(i))
		}
		if g, w := got.PublisherName(got.PublisherID(i)), want.PublisherName(want.PublisherID(i)); g != w {
			t.Fatalf("cut %d row %d: publisher %q, rebuild has %q", cut, i, g, w)
		}
		for _, c := range cols {
			if g, w := rowNames(c.got, i), rowNames(c.want, i); !reflect.DeepEqual(g, w) {
				t.Fatalf("cut %d row %d: %s values %v, rebuild has %v", cut, i, c.name, g, w)
			}
		}
	}
	for _, snap := range []simclock.Snapshot{
		{Start: simclock.DayTime(-30), Days: 10},
		{Start: simclock.DayTime(0), Days: 1},
		{Start: simclock.DayTime(20), Days: 7},
		{Start: simclock.DayTime(45), Days: 400},
	} {
		glo, ghi := got.WindowBounds(snap)
		wlo, whi := want.WindowBounds(snap)
		if glo != wlo || ghi != whi {
			t.Fatalf("cut %d: window %v bounds [%d,%d), rebuild has [%d,%d)", cut, snap, glo, ghi, wlo, whi)
		}
	}
	// Every query is asked twice of the cut's dataset: the first asking
	// scans it, the second is answered from what the first left on it.
	wq, _ := diffQueries(t, want)
	for _, asking := range []string{"first", "second"} {
		gq, how := diffQueries(t, got)
		for i := range wq {
			if !bytes.Equal(gq[i], wq[i]) {
				t.Fatalf("cut %d: query %d, %s asking, answers\n%s, rebuild answers\n%s", cut, i, asking, gq[i], wq[i])
			}
			if asking == "second" && how[i] != telemetry.DerivedHit {
				t.Fatalf("cut %d: query %d, second asking, was not answered from the dataset (how=%v)", cut, i, how[i])
			}
		}
	}
}

// randomDelta draws one cut's worth of records. The shapes are the
// ones a merge can get wrong: nothing, one record, many; a delta that
// sorts wholly before the base, wholly after it, or through it;
// records already published, again; and, from the second half of the
// schedule on, publishers, CDNs, device models and a platform the
// published name tables have never seen, on records that sort early.
func randomDelta(rng *rand.Rand, cut, cuts int, all []telemetry.ViewRecord) []telemetry.ViewRecord {
	urls := []string{"http://cdn/a.m3u8", "http://cdn/b.mpd", "http://cdn/c.ism", "http://cdn/d.f4m"}
	devices := []string{"Roku", "iPhone", "HTML5", "FireTV", "Toaster"}
	cdns := [][]string{{"A"}, {"B"}, {"A", "B"}, {"C"}, nil}
	pubs := 17
	if cut >= cuts/2 {
		urls = append(urls, "http://cdn/e.mp4")
		devices = append(devices, "SamsungTV", "Xbox", "iPad")
		cdns = append(cdns, []string{"late-" + fmt.Sprint(cut)}, []string{"B", "late"})
		pubs = 17 + cut
	}
	n := []int{0, 1, 1 + rng.Intn(8), 50 + rng.Intn(350)}[rng.Intn(4)]
	dayLo, dayHi := 0, 50 // through the base
	switch rng.Intn(4) {
	case 0:
		dayLo, dayHi = -20-cut, -19-cut // before everything published
	case 1:
		dayLo, dayHi = 60+cut, 61+cut // after everything published
	}
	delta := make([]telemetry.ViewRecord, 0, n)
	for i := 0; i < n; i++ {
		if len(all) > 0 && rng.Intn(10) == 0 {
			delta = append(delta, all[rng.Intn(len(all))])
			continue
		}
		delta = append(delta, telemetry.ViewRecord{
			// Few distinct instants, so ties run deep into the order.
			Timestamp: simclock.DayTime(dayLo + rng.Intn(dayHi-dayLo)).Add(time.Duration(rng.Intn(3)) * time.Hour),
			Publisher: fmt.Sprintf("pub-%02d", rng.Intn(pubs)),
			VideoID:   fmt.Sprintf("v-%03d", rng.Intn(40)),
			URL:       urls[rng.Intn(len(urls))],
			Device:    devices[rng.Intn(len(devices))],
			CDNs:      cdns[rng.Intn(len(cdns))],
			Geo:       fmt.Sprintf("US-%02d", rng.Intn(7)),
			ViewSec:   float64(30 + rng.Intn(900)),
			Weight:    float64(rng.Intn(5)),
		})
	}
	return delta
}

// TestCutMatchesRebuild drives the engine through seeded random
// schedules of ingest batches and cuts, and after every cut holds the
// published dataset to the rebuild of everything admitted so far.
func TestCutMatchesRebuild(t *testing.T) {
	const cuts = 40
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		e := newTestEngine(t, Config{})
		var all []telemetry.ViewRecord
		for cut := 0; cut < cuts; cut++ {
			delta := randomDelta(rng, cut, cuts, all)
			mustIngest(t, e, delta)
			all = append(all, delta...)
			g := e.Snapshot()
			if g.Records != len(all) {
				t.Fatalf("seed %d cut %d: generation holds %d records of %d", seed, cut, g.Records, len(all))
			}
			requireSameDataset(t, cut, g.Dataset, rebuild(all))
		}
	}
}

// TestHeldGenerationSurvivesLaterCuts pins what a cut's row sharing may
// not do: every later generation points at the rows a held one holds,
// and none may write them. Generation N — a merged one, its rows
// already shared with the first cut — is held while K more epochs are
// cut whose deltas land before its first record, between its records
// and after its last; N must still hold the same records and give the
// same answers, and the newest generation must hold what NewDataset of
// the union holds.
func TestHeldGenerationSurvivesLaterCuts(t *testing.T) {
	const k = 12
	e := newTestEngine(t, Config{})
	all := genRecords(400)
	mustIngest(t, e, all[:300])
	e.Snapshot()
	mustIngest(t, e, all[300:])
	held := e.Snapshot()
	rows := held.Dataset.All()
	answers, _ := diffQueries(t, held.Dataset)
	for cut := 0; cut < k; cut++ {
		delta := genRecords(60 + cut)
		for i := range delta {
			// Days -2 to 51 against the held rows' 0 to 49.
			delta[i].Timestamp = simclock.DayTime(i%54 - 2).Add(time.Duration(cut) * time.Minute)
			delta[i].VideoID = fmt.Sprintf("late-%d-%d", cut, i)
			delta[i].CDNs = [][]string{{"A"}, {"late", "B"}, nil}[i%3]
		}
		mustIngest(t, e, delta)
		all = append(all, delta...)
		e.Snapshot()
	}
	if !reflect.DeepEqual(held.Dataset.All(), rows) {
		t.Fatal("the held generation's records changed under later cuts")
	}
	again, _ := diffQueries(t, held.Dataset)
	if !reflect.DeepEqual(again, answers) {
		t.Fatal("the held generation's answers changed under later cuts")
	}
	requireSameDataset(t, -1, held.Dataset, rebuild(rows))
	newest := e.Generation()
	if newest.Epoch != 2+k || newest.Records != len(all) {
		t.Fatalf("newest generation: epoch %d, %d records; want %d, %d", newest.Epoch, newest.Records, 2+k, len(all))
	}
	requireSameDataset(t, k, newest.Dataset, rebuild(all))
}
