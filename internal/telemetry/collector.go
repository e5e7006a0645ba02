package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"

	"vmp/internal/manifest"
	"vmp/internal/obs"
	"vmp/internal/simclock"
	"vmp/internal/wire"
)

// ackBounds are the collector's ingest.ack SLO buckets, in seconds:
// POST arrival to the 202 acknowledgement. The collector has no WAL in
// front of the store, so its tail is shorter than the serving plane's.
var ackBounds = []float64{0.0001, 0.0005, 0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.5, 1}

// boolAttr renders a bool as a 0/1 span attribute.
func boolAttr(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// MaxLineBytes is the largest JSONL line the wire-level ingest paths
// accept; it lives in internal/wire with the rest of the codecs and
// is re-exported here for the storage-side callers.
const MaxLineBytes = wire.MaxLineBytes

// ScanJSONL reads JSON-lines view records from r with the module-wide
// MaxLineBytes line cap. Blank lines are skipped; lines that fail to
// parse or lack a publisher are counted in bad, not returned. A
// non-nil err (an oversized line or a transport read error) means the
// stream was cut short: batch holds the records scanned up to that
// point and the caller decides whether to keep them.
func ScanJSONL(r io.Reader) (batch []ViewRecord, bad int, err error) {
	return wire.ScanJSONL(r)
}

// Collector is the backend half of the monitoring pipeline: an HTTP
// service that ingests JSON-lines batches of view records (the wire
// format publishers' monitoring libraries report in) and accumulates
// them in a Store. Use NewCollector and mount Handler on any mux.
//
// The collector sits on the same observability substrate as the live
// serving plane: its ingest counters are obs.Counters in a Registry
// (so /v1/metrics serves them alongside any daemon-level metrics) and
// each batch gets an ingest.batch span with scan and store children
// when the tracer is enabled.
type Collector struct {
	store  *Store
	reg    *obs.Registry
	tracer *obs.Tracer
	clock  simclock.Clock
	series *obs.SeriesRing

	ingested   *obs.Counter
	rejected   *obs.Counter
	scanErrors *obs.Counter
	oversize   *obs.Counter   // bodies past wire.MaxBodyBytes, on the wire or inflated: 413s
	fallback   *obs.Counter   // JSONL lines the fast parser handed to encoding/json
	ackBinary  *obs.Histogram // ingest.ack SLO: POST arrival → 202, binary frames
	ackJSONL   *obs.Histogram // ingest.ack SLO: POST arrival → 202, JSONL

	// decoders recycles wire decoders across ingest requests, binary
	// and JSONL alike; a decoder's scratch is only reused after
	// Store.Append has copied the batch, which happens before the
	// handler returns it.
	decoders sync.Pool
}

// NewCollector returns a collector backed by store with a private
// registry and a disabled tracer. A nil store gets a fresh one.
func NewCollector(store *Store) *Collector {
	return NewCollectorObs(store, nil, nil)
}

// NewCollectorObs returns a collector wired to an explicit registry
// and tracer, so a daemon can share one observability surface between
// the collector and its own instrumentation. A nil reg gets a fresh
// registry; a nil tr gets a disabled tracer.
func NewCollectorObs(store *Store, reg *obs.Registry, tr *obs.Tracer) *Collector {
	if store == nil {
		store = NewStore()
	}
	if reg == nil {
		reg = obs.NewRegistry()
	}
	if tr == nil {
		tr = obs.NewTracer(nil, 1)
		tr.SetEnabled(false)
	}
	c := &Collector{
		store:      store,
		reg:        reg,
		tracer:     tr,
		clock:      simclock.Wall(),
		ingested:   reg.Counter("collector_ingested_total"),
		rejected:   reg.Counter("collector_rejected_total"),
		scanErrors: reg.Counter("collector_scan_errors_total"),
		oversize:   reg.Counter("collector_ingest_oversize_total"),
		fallback:   reg.Counter("collector_ingest_jsonl_fallback_total"),
		ackBinary:  reg.Histogram("collector_ingest_ack_binary_seconds", ackBounds),
		ackJSONL:   reg.Histogram("collector_ingest_ack_jsonl_seconds", ackBounds),
	}
	c.decoders.New = func() any { return wire.NewDecoder() }
	return c
}

// SetClock replaces the ack-latency time source (the wall clock by
// default). Call before serving; tests use a simclock.ManualClock so
// latency observations are deterministic.
func (c *Collector) SetClock(clock simclock.Clock) {
	if clock != nil {
		c.clock = clock
	}
}

// SetSeries attaches an in-process time-series ring; MountObs then
// serves it at /v1/series. Call before MountObs.
func (c *Collector) SetSeries(series *obs.SeriesRing) { c.series = series }

// Store returns the backing store.
func (c *Collector) Store() *Store { return c.store }

// Metrics returns the collector's registry.
func (c *Collector) Metrics() *obs.Registry { return c.reg }

// Tracer returns the collector's tracer.
func (c *Collector) Tracer() *obs.Tracer { return c.tracer }

// Handler returns the collector's HTTP handler:
//
//	POST /v1/views   — body is JSON-lines ViewRecords or binary batch
//	                   frames, optionally gzip'd; returns 202, or 413
//	                   past wire.MaxBodyBytes
//	GET  /v1/stats   — ingestion counters as JSON
//	GET  /v1/summary — per-protocol and per-device view-hour shares
func (c *Collector) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/views", c.handleViews)
	mux.HandleFunc("/v1/stats", c.handleStats)
	mux.HandleFunc("/v1/summary", c.handleSummary)
	return mux
}

func (c *Collector) handleViews(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	defer func() { _ = r.Body.Close() }()
	ack := obs.StartWatch(c.clock)
	root := c.tracer.Start("ingest.batch", 0)
	ssp := c.tracer.Start("ingest.scan", root.ID())
	dec := c.decoders.Get().(*wire.Decoder)
	defer c.decoders.Put(dec)
	// Two bounds, one constant: MaxBytesReader on what the connection
	// delivers, DecodeBody on what that inflates to.
	r.Body = http.MaxBytesReader(w, r.Body, wire.MaxBodyBytes)
	batch, bad, info, err := wire.DecodeBody(r.Header, r.Body, dec)
	ssp.End(obs.KV("records", int64(len(batch))), obs.KV("bad", int64(bad)),
		obs.KV("binary", boolAttr(info.Binary)), obs.KV("gzip", boolAttr(info.Gzip)),
		obs.KV("bytes", info.Bytes), obs.KV("fallback", int64(info.Fallback)))
	c.fallback.Add(int64(info.Fallback))
	if errors.Is(err, wire.ErrUnsupportedMedia) {
		root.End(obs.KV("unsupported_media", 1))
		http.Error(w, err.Error(), http.StatusUnsupportedMediaType)
		return
	}
	if err != nil {
		// The batch was cut short (oversized line or body, truncated or
		// corrupt binary frame, bad gzip, transport error): reject it
		// whole, and surface the event on the stats counters so a
		// misbehaving sensor is visible, not silent.
		status := http.StatusBadRequest
		var onWire *http.MaxBytesError
		if errors.Is(err, wire.ErrBodyTooLarge) || errors.As(err, &onWire) {
			status = http.StatusRequestEntityTooLarge
			c.oversize.Add(1)
		}
		c.scanErrors.Add(1)
		c.rejected.Add(int64(len(batch) + bad))
		c.tracer.Emit("batch_rejected",
			obs.KV("records", int64(len(batch)+bad)), obs.KV("scan_error", 1))
		root.End(obs.KV("rejected", int64(len(batch)+bad)), obs.KV("scan_error", 1))
		http.Error(w, fmt.Sprintf("read error: %v", err), status)
		return
	}
	stsp := c.tracer.Start("ingest.store", root.ID())
	c.store.Append(batch...)
	stsp.End(obs.KV("records", int64(len(batch))))
	c.ingested.Add(int64(len(batch)))
	c.rejected.Add(int64(bad))
	c.tracer.Emit("batch_admitted",
		obs.KV("records", int64(len(batch))), obs.KV("rejected", int64(bad)))
	w.WriteHeader(http.StatusAccepted)
	fmt.Fprintf(w, `{"accepted":%d,"rejected":%d}`+"\n", len(batch), bad)
	// The ingest.ack SLO window closes at the 202, split by body
	// encoding so each wire path gets its own distribution.
	if info.Binary {
		ack.Stop(c.ackBinary)
	} else {
		ack.Stop(c.ackJSONL)
	}
	root.End(obs.KV("accepted", int64(len(batch))), obs.KV("rejected", int64(bad)))
}

func (c *Collector) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, `{"ingested":%d,"rejected":%d,"scan_errors":%d,"stored":%d}`+"\n",
		c.ingested.Load(), c.rejected.Load(), c.scanErrors.Load(), c.store.Len())
}

// MountObs registers the shared observability endpoints (/v1/metrics,
// /metrics, /v1/series, /v1/trace, /debug/vmp) for the collector's
// registry, tracer, and series ring (SetSeries; absent one, /v1/series
// serves an empty ring) on mux. Handler deliberately does not call
// this: callers opt in, so a collector embedded in a larger daemon can
// expose one combined surface instead.
func (c *Collector) MountObs(mux *http.ServeMux) {
	obs.Mount(mux, c.reg, c.tracer, c.series)
}

// Summary is the /v1/summary payload: the coarse dataset breakdown a
// streaming-analytics dashboard leads with.
type Summary struct {
	Records        int                `json:"records"`
	Publishers     int                `json:"publishers"`
	ViewHours      float64            `json:"view_hours"`
	ProtocolVHPct  map[string]float64 `json:"protocol_vh_pct"`
	DeviceVHPct    map[string]float64 `json:"device_vh_pct"`
	LiveVHPct      float64            `json:"live_vh_pct"`
	FailedViewsPct float64            `json:"failed_views_pct"`
}

// Summarize computes the summary over the store's current contents.
func (c *Collector) Summarize() Summary {
	recs := c.store.All()
	s := Summary{
		Records:       len(recs),
		ProtocolVHPct: map[string]float64{},
		DeviceVHPct:   map[string]float64{},
	}
	pubs := map[string]struct{}{}
	var liveVH, views, failed float64
	for i := range recs {
		r := &recs[i]
		pubs[r.Publisher] = struct{}{}
		vh := r.ViewHours()
		s.ViewHours += vh
		s.ProtocolVHPct[manifest.InferProtocol(r.URL).String()] += vh
		s.DeviceVHPct[r.Device] += vh
		if r.Live {
			liveVH += vh
		}
		views += r.Views()
		if r.Failed {
			failed += r.Views()
		}
	}
	s.Publishers = len(pubs)
	if s.ViewHours > 0 {
		for k := range s.ProtocolVHPct {
			s.ProtocolVHPct[k] = 100 * s.ProtocolVHPct[k] / s.ViewHours
		}
		for k := range s.DeviceVHPct {
			s.DeviceVHPct[k] = 100 * s.DeviceVHPct[k] / s.ViewHours
		}
		s.LiveVHPct = 100 * liveVH / s.ViewHours
	}
	if views > 0 {
		s.FailedViewsPct = 100 * failed / views
	}
	return s
}

func (c *Collector) handleSummary(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	buf, err := json.Marshal(c.Summarize())
	if err != nil {
		http.Error(w, "encode error", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(append(buf, '\n'))
}

// Sensor is the client half: the monitoring library a publisher
// integrates with its video player (§3). It batches records and posts
// them to a collector endpoint.
type Sensor struct {
	endpoint string
	client   *http.Client
	batch    []ViewRecord
	batchMax int
}

// NewSensor returns a sensor posting to endpoint (the collector's
// /v1/views URL). batchMax bounds records per POST; values < 1 default
// to 100.
func NewSensor(endpoint string, client *http.Client, batchMax int) *Sensor {
	if client == nil {
		client = http.DefaultClient
	}
	if batchMax < 1 {
		batchMax = 100
	}
	return &Sensor{endpoint: endpoint, client: client, batchMax: batchMax}
}

// Report queues one view record, flushing if the batch is full.
func (s *Sensor) Report(rec ViewRecord) error {
	s.batch = append(s.batch, rec)
	if len(s.batch) >= s.batchMax {
		return s.Flush()
	}
	return nil
}

// Flush posts all queued records. It is a no-op on an empty batch.
func (s *Sensor) Flush() error {
	if len(s.batch) == 0 {
		return nil
	}
	var buf bytes.Buffer
	if err := EncodeJSONL(&buf, s.batch); err != nil {
		return err
	}
	resp, err := s.client.Post(s.endpoint, "application/x-ndjson", &buf)
	if err != nil {
		return fmt.Errorf("telemetry: posting views: %w", err)
	}
	// Drain so the connection can be reused; neither the drain nor the
	// close can lose data we care about.
	defer func() { _ = resp.Body.Close() }()
	_, _ = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("telemetry: collector returned %s", resp.Status)
	}
	s.batch = s.batch[:0]
	return nil
}

// Pending returns the number of queued, unflushed records.
func (s *Sensor) Pending() int { return len(s.batch) }

// EncodeJSONL writes records to w as JSON lines.
func EncodeJSONL(w io.Writer, records []ViewRecord) error {
	return wire.EncodeJSONL(w, records)
}

// DecodeJSONL reads JSON-lines records from r until EOF.
func DecodeJSONL(r io.Reader) ([]ViewRecord, error) {
	return wire.DecodeJSONL(r)
}
