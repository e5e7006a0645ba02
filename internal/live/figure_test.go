package live

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"vmp/internal/analytics"
	"vmp/internal/core"
)

// TestQueryEqualsFigure ties what /v1/query/share and
// /v1/query/top-publishers serve to what the study prints: a generation
// holding exactly the latest snapshot's records answers with the floats
// of that snapshot's column of Figs 2b, 6a, 6c and 11b, and its top
// three publishers are the ones Fig 6b excludes. Equality is ==, not a
// tolerance — the two sides are one function over the same rows in the
// same order.
func TestQueryEqualsFigure(t *testing.T) {
	study := core.NewStudy(core.StudyConfig{SnapshotStride: 20})
	ds, latest := study.Dataset(), study.Schedule().Latest()
	col := len(study.Schedule()) - 1

	e := newTestEngine(t, Config{})
	lo, hi := ds.WindowBounds(latest)
	mustIngest(t, e, ds.All()[lo:hi])
	gen := e.Snapshot().Dataset
	if gen.Len() == 0 || gen.Len() != hi-lo {
		t.Fatalf("generation holds %d records, the latest snapshot %d", gen.Len(), hi-lo)
	}

	requireColumn := func(name string, resp *ShareResponse, fig *analytics.TimeSeries) {
		t.Helper()
		served := map[string]float64{}
		for _, sh := range resp.Shares {
			if _, ok := fig.Series[sh.Key]; !ok {
				t.Errorf("%s: served key %q is not in the figure", name, sh.Key)
			}
			served[sh.Key] = sh.Pct
		}
		if len(served) == 0 {
			t.Fatalf("%s: empty answer", name)
		}
		for _, key := range fig.Keys {
			if got, want := served[key], fig.Series[key][col]; got != want {
				t.Errorf("%s[%s]: served %v, the figure prints %v", name, key, got, want)
			}
		}
	}
	cases := []struct {
		name, dim, by string
		fig           *analytics.TimeSeries
	}{
		{"fig2b", "protocol", "viewhours", study.Fig2b()},
		{"fig6a", "platform", "viewhours", study.Fig6a()},
		{"fig6c", "platform", "views", study.Fig6c()},
		{"fig11b", "cdn", "viewhours", study.Fig11b()},
	}
	for _, c := range cases {
		resp, err := ShareOver(gen, c.dim, c.by)
		if err != nil {
			t.Fatal(err)
		}
		requireColumn(c.name, resp, c.fig)
	}

	top := TopPublishersOver(gen, 3).Top
	mask := analytics.TopPublisherMask(ds, latest, 3)
	excluded := 0
	for _, in := range mask {
		if in {
			excluded++
		}
	}
	if len(top) != 3 || excluded != 3 {
		t.Fatalf("top-publishers served %d rows, the Fig 6b mask sets %d; want 3 and 3", len(top), excluded)
	}
	for _, row := range top {
		if id, ok := ds.PublisherIDOf(row.Publisher); !ok || !mask[id] {
			t.Errorf("served top publisher %s is not one Fig 6b excludes", row.Publisher)
		}
	}

	// The same floats over HTTP: the bytes are the answer's one
	// serialization, and JSON carries a float64 exactly.
	rec := httptest.NewRecorder()
	NewServer(e).Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/query/share?dim=cdn", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /v1/query/share?dim=cdn: %d %s", rec.Code, rec.Body)
	}
	direct, err := ShareOver(gen, "cdn", "")
	if err != nil {
		t.Fatal(err)
	}
	if want, err := MarshalResponse(direct); err != nil || !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("HTTP body %q, want %q (err %v)", rec.Body, want, err)
	}
	var resp ShareResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	requireColumn("fig11b over HTTP", &resp, study.Fig11b())
}
