package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"time"

	"vmp"
	"vmp/internal/live"
	"vmp/internal/telemetry"
	"vmp/internal/wire"
)

// Dataset sizing. The records are the paper's ecosystem from vmp.New,
// not a synthetic stand-in; the stride thins the snapshot schedule so
// a run with its set-up passes fits the benchmark's time budget.
const (
	fullStride    = 12 // ≈ 110 k records at the default seed
	fullSessions  = 0  // Fig 15/16 playback sessions: the study's default (150)
	quickStride   = 64 // one snapshot, ≈ 36 k records
	quickSessions = 3

	walBatch   = 500 // records per binary frame on ingest_wal
	jsonlBatch = 200 // records per gzip JSONL body on ingest_jsonl
	mixedBatch = 100 // records per binary frame from serve_mixed's writer
)

// body is one pre-encoded POST body.
type body struct {
	data    []byte
	records int
}

// bodySet is a sequence of bodies sharing one encoding.
type bodySet struct {
	contentType string
	gzip        bool
	bodies      []body
	bytes       int64
}

// studyConfig is the vmp.Config every part of a run generates from.
func (o options) studyConfig(seed uint64) vmp.Config {
	if o.quick {
		return vmp.Config{Seed: seed, SnapshotStride: quickStride, QoESessions: quickSessions}
	}
	return vmp.Config{Seed: seed, SnapshotStride: fullStride, QoESessions: fullSessions}
}

// generate builds the run's records from its seed: same seed, same
// records, in the store's timestamp order. It also returns the start
// of the newest snapshot window, for the window query.
func generate(cfg vmp.Config) ([]telemetry.ViewRecord, time.Time) {
	s := vmp.New(cfg)
	return s.Store().All(), s.Schedule().Latest().Start.UTC().Truncate(24 * time.Hour)
}

// encodeBinary pre-encodes recs as uncompressed binary frames of n
// records, one frame per body.
func encodeBinary(recs []telemetry.ViewRecord, n int) (*bodySet, error) {
	set := &bodySet{contentType: wire.ContentTypeBinary}
	enc := wire.NewEncoder()
	for lo := 0; lo < len(recs); lo += n {
		hi := min(lo+n, len(recs))
		frame, err := enc.AppendFrame(nil, recs[lo:hi])
		if err != nil {
			return nil, fmt.Errorf("encoding frame at record %d: %w", lo, err)
		}
		set.add(frame, hi-lo)
	}
	return set, nil
}

// encodeJSONLGzip pre-encodes recs as gzip-compressed JSONL bodies of
// n records: vmpgen -post's default encoding and the only one
// telemetry.Sensor speaks, compressed so the inflate path is exercised.
func encodeJSONLGzip(recs []telemetry.ViewRecord, n int) (*bodySet, error) {
	set := &bodySet{contentType: wire.ContentTypeJSONL, gzip: true}
	var buf bytes.Buffer
	gz, err := gzip.NewWriterLevel(&buf, gzip.BestSpeed)
	if err != nil {
		return nil, err
	}
	for lo := 0; lo < len(recs); lo += n {
		hi := min(lo+n, len(recs))
		buf.Reset()
		gz.Reset(&buf)
		if err := telemetry.EncodeJSONL(gz, recs[lo:hi]); err != nil {
			return nil, err
		}
		if err := gz.Close(); err != nil {
			return nil, err
		}
		set.add(bytes.Clone(buf.Bytes()), hi-lo)
	}
	return set, nil
}

func (s *bodySet) add(data []byte, records int) {
	s.bodies = append(s.bodies, body{data: data, records: records})
	s.bytes += int64(len(data))
}

func (s *bodySet) records() int {
	n := 0
	for _, b := range s.bodies {
		n += b.records
	}
	return n
}

// query is one entry of the query mix: the path a client GETs and
// the same computation run in-process over a dataset.
type query struct {
	path string
	run  func(*telemetry.Dataset) (any, error)
}

// queryMix is share × {protocol, platform, cdn} × {viewhours, views},
// top-publishers, and one window on a real snapshot date. serve_mixed
// cycles through it, and every workload's correctness gate checks each
// answer byte for byte.
func queryMix(windowStart time.Time) []query {
	var mix []query
	for _, dim := range []string{"protocol", "platform", "cdn"} {
		for _, by := range []string{"viewhours", "views"} {
			dim, by := dim, by
			mix = append(mix, query{
				path: "/v1/query/share?dim=" + dim + "&by=" + by,
				run:  func(ds *telemetry.Dataset) (any, error) { return live.ShareOver(ds, dim, by) },
			})
		}
	}
	return append(mix,
		query{
			path: "/v1/query/top-publishers?n=10",
			run:  func(ds *telemetry.Dataset) (any, error) { return live.TopPublishersOver(ds, 10), nil },
		},
		query{
			path: "/v1/query/window?start=" + windowStart.Format("2006-01-02") + "&days=2",
			run:  func(ds *telemetry.Dataset) (any, error) { return live.WindowOver(ds, windowStart, 2), nil },
		})
}

// answers runs the query mix in-process over ds and returns the
// canonical response bytes by path.
func answers(ds *telemetry.Dataset, mix []query) (map[string][]byte, error) {
	out := make(map[string][]byte, len(mix))
	for _, q := range mix {
		resp, err := q.run(ds)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q.path, err)
		}
		b, err := live.MarshalResponse(resp)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q.path, err)
		}
		out[q.path] = b
	}
	return out, nil
}

// oracle computes the bytes every query of the mix must return for a
// set of acked records, the trivially correct way: sort a copy
// canonically, freeze it, and run the shared query functions offline.
func oracle(recs []telemetry.ViewRecord, mix []query) (map[string][]byte, error) {
	sorted := append([]telemetry.ViewRecord(nil), recs...)
	telemetry.CanonicalSort(sorted)
	return answers(telemetry.NewDataset(sorted), mix)
}
