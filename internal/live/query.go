package live

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"vmp/internal/analytics"
	"vmp/internal/simclock"
	"vmp/internal/telemetry"
)

// This file is the query vocabulary of the serving plane. Every
// response type here is computed and serialized identically whether it
// is served by vmpd from a published generation or printed offline by
// vmpstudy from a JSONL file — that shared code path is what the CI
// smoke stage's byte-identical online/offline comparison rests on.

// Every answer here is a function of an immutable Dataset and a small
// key, so each is computed once per dataset and kept on it
// (telemetry.Dataset.Derived): the first asking scans, every later one
// pays for the answer alone, and an epoch cut — which publishes a fresh
// Dataset — starts empty without anything being invalidated. Responses
// are therefore shared between callers and are read-only.

// queryDims is the closed set of share dimensions, in key order.
var queryDims = [...]string{"protocol", "platform", "cdn"}

// dimColumns returns ds's columns in queryDims order.
func dimColumns(ds *telemetry.Dataset) [len(queryDims)]*telemetry.DimColumn {
	return [...]*telemetry.DimColumn{ds.ProtocolCol(), ds.PlatformCol(), ds.CDNCol()}
}

func dimIndex(dim string) (int, error) {
	for i, name := range queryDims {
		if dim == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("live: unknown dimension %q (want protocol, platform, or cdn)", dim)
}

// Share is one dimension value's slice of the total.
type Share = analytics.Share

// ShareResponse is the /v1/query/share payload.
type ShareResponse struct {
	Dim     string  `json:"dim"`
	By      string  `json:"by"`
	Records int     `json:"records"`
	Shares  []Share `json:"shares"`
}

// shareKey is a share answer's slot on its dataset: 2×dimension index,
// +1 for by=views. Six values, whatever a client sends.
type shareKey uint8

// ShareOver computes each dimension value's percentage of total
// view-hours (by "viewhours", the paper's primary measure) or views
// (by "views") over the whole dataset: analytics.ShareOverRows, the
// function behind the study's share figures, asked of every row. Output
// is sorted by key, ascending, so rendering is deterministic. The
// response is computed once per dataset and shared: callers must not
// modify it.
func ShareOver(ds *telemetry.Dataset, dim, by string) (*ShareResponse, error) {
	resp, _, err := shareOver(ds, dim, by)
	return resp, err
}

// shareOver is ShareOver, also reporting whether the dataset already
// held the answer. dim and by are validated before they become a key,
// so a bad parameter never takes a slot, and by="" is by="viewhours".
func shareOver(ds *telemetry.Dataset, dim, by string) (*ShareResponse, telemetry.Derivation, error) {
	di, err := dimIndex(dim)
	if err != nil {
		return nil, 0, err
	}
	useViews, err := byViews(by)
	if err != nil {
		return nil, 0, err
	}
	key := shareKey(2 * di)
	if useViews {
		key++
	}
	v, how := ds.Derived(key, func() any {
		return &ShareResponse{
			Dim: queryDims[di], By: byName(useViews), Records: ds.Len(),
			Shares: analytics.ShareOverRows(ds, dimColumns(ds)[di], 0, ds.Len(), nil, useViews),
		}
	})
	return v.(*ShareResponse), how, nil
}

func byViews(by string) (bool, error) {
	switch by {
	case "", "viewhours":
		return false, nil
	case "views":
		return true, nil
	}
	return false, fmt.Errorf("live: unknown measure %q (want viewhours or views)", by)
}

func byName(useViews bool) string {
	if useViews {
		return "views"
	}
	return "viewhours"
}

// TopPublisher is one row of a Top-K ranking.
type TopPublisher = analytics.RankedPublisher

// TopPublishersResponse is the /v1/query/top-publishers payload.
type TopPublishersResponse struct {
	N       int            `json:"n"`
	Records int            `json:"records"`
	Total   float64        `json:"total_view_hours"`
	Top     []TopPublisher `json:"top"`
}

// pubRanking is every publisher of a dataset in rank order. It is what
// a dataset keeps of top-publishers: any n is a prefix of it, so n is
// not part of the key and cannot be used to grow the table.
type pubRanking struct {
	total float64
	rows  []TopPublisher
}

type rankingKey struct{}

// TopPublishersOver ranks publishers by total view-hours over the
// whole dataset, ties broken by name ascending: analytics.RankPublishers,
// the ranking the offline exclusion analyses use. Top is a read-only
// view of a ranking computed once per dataset: callers must not modify
// it.
func TopPublishersOver(ds *telemetry.Dataset, n int) *TopPublishersResponse {
	resp, _ := topPublishersOver(ds, n)
	return resp
}

func topPublishersOver(ds *telemetry.Dataset, n int) (*TopPublishersResponse, telemetry.Derivation) {
	if n <= 0 {
		n = 10
	}
	v, how := ds.Derived(rankingKey{}, func() any {
		rows, total := analytics.RankPublishers(ds, 0, ds.Len())
		return &pubRanking{total: total, rows: rows}
	})
	rank := v.(*pubRanking)
	k := min(n, len(rank.rows))
	return &TopPublishersResponse{N: n, Records: ds.Len(), Total: rank.total, Top: rank.rows[:k:k]}, how
}

// WindowResponse is the /v1/query/window payload: the macroscopic
// stats of one time window, the serving-plane form of the §3 context
// table.
type WindowResponse struct {
	Start            string  `json:"start"`
	Days             int     `json:"days"`
	SampledViews     int     `json:"sampled_views"`
	ViewsRepresented float64 `json:"views_represented"`
	ViewHours        float64 `json:"view_hours"`
	DailyViewHours   float64 `json:"daily_view_hours"`
	Publishers       int     `json:"publishers"`
	DistinctGeos     int     `json:"distinct_geos"`
}

// windowKey is a window answer's slot: the start as an instant (so one
// moment written in two zones is one key) and the length in days.
type windowKey struct {
	sec  int64
	nsec int
	days int
}

// WindowOver computes macro stats for the window [start, start+days).
// The response is computed once per dataset for each of a bounded
// number of distinct windows and shared: callers must not modify it.
func WindowOver(ds *telemetry.Dataset, start time.Time, days int) *WindowResponse {
	resp, _ := windowOver(ds, start, days)
	return resp
}

// windowOver is WindowOver, also reporting how the answer was come by.
// Both halves of the key are the client's, so it goes through the
// capped part of the dataset's table: past the cap a window is scanned
// for its caller and not kept.
func windowOver(ds *telemetry.Dataset, start time.Time, days int) (*WindowResponse, telemetry.Derivation) {
	if days <= 0 {
		days = 1
	}
	key := windowKey{sec: start.Unix(), nsec: start.Nanosecond(), days: days}
	v, how := ds.DerivedCapped(key, func() any { return scanWindow(ds, start, days) })
	return v.(*WindowResponse), how
}

func scanWindow(ds *telemetry.Dataset, start time.Time, days int) *WindowResponse {
	snap := simclock.Snapshot{Start: start, Days: days}
	m := analytics.MacroDataset(ds, snap, days)
	return &WindowResponse{
		Start:            start.UTC().Format(time.RFC3339),
		Days:             days,
		SampledViews:     m.SampledViews,
		ViewsRepresented: m.ViewsRepresented,
		ViewHours:        m.ViewHours,
		DailyViewHours:   m.DailyViewHours,
		Publishers:       m.Publishers,
		DistinctGeos:     m.DistinctGeos,
	}
}

// MarshalResponse renders a query response as the one canonical byte
// sequence: compact JSON with a trailing newline, exactly what a
// json.Encoder emits. HTTP handlers marshal to memory first so an
// encode failure can still become a clean 500 before any byte reaches
// the client: the status, and every header, goes before the body (the
// http-* rows of docs/mutants.md).
func MarshalResponse(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// WriteJSON serializes a query response the one canonical way. vmpd's
// handlers and vmpstudy's offline answer mode both funnel through the
// same bytes, which is what makes the smoke-stage equality check a
// byte comparison.
func WriteJSON(w io.Writer, v any) error {
	b, err := MarshalResponse(v)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}
