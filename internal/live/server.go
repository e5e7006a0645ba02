package live

import (
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"time"

	"vmp/internal/obs"
	"vmp/internal/telemetry"
	"vmp/internal/wire"
)

// Server exposes an Engine over HTTP: wire-level ingest on /v1/views
// (binary batch frames or the JSONL fallback, either one
// gzip-compressed — see wire.DecodeBody), the query API over the
// published generation, an admin snapshot trigger, and the
// observability surface (metrics, trace, debug).
type Server struct {
	engine *Engine
	tracer *obs.Tracer

	rejected   *obs.Counter
	scanErrors *obs.Counter
	oversize   *obs.Counter // bodies past wire.MaxBodyBytes, on the wire or inflated: 413s
	fallback   *obs.Counter // JSONL lines the fast parser handed to encoding/json
	qLatency   map[string]*obs.Histogram
	ackBinary  *obs.Histogram // ingest.ack SLO: POST arrival → 202, binary frames
	ackJSONL   *obs.Histogram // ingest.ack SLO: POST arrival → 202, JSONL

	// memo counts how query answers were come by, indexed by
	// telemetry.Derivation: computed (miss), found on the generation's
	// Dataset (hit), or computed and not kept because the Dataset's
	// window-key slots were all taken (uncached).
	memo [telemetry.DerivedUncached + 1]*obs.Counter

	// decoders is a free list of wire decoders, binary and JSONL
	// alike, holding up to GOMAXPROCS: a request takes one, or builds
	// one if the list is empty, and puts it back, or drops it if the
	// list is full. A decoder's scratch is only reused after IngestFrames
	// has copied the batch (and the WAL the frames), which happens
	// before the handler puts it back. A used decoder holds about 1 MB;
	// a sync.Pool would keep its objects through one collection as
	// victims, so what it held would depend on when the collector last
	// ran, where the list holds at most GOMAXPROCS, whenever one reads.
	decoders chan *wire.Decoder
}

// queryLatencyBounds are the per-endpoint latency buckets, in seconds.
var queryLatencyBounds = []float64{0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1}

// ackLatencyBounds are the ingest.ack SLO buckets, in seconds: POST
// arrival to the 202 acknowledgement, which under a batch-fsync WAL
// includes the fsync tax, so the range reaches further than the query
// buckets do.
var ackLatencyBounds = []float64{0.0001, 0.0005, 0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.5, 1, 5}

// NewServer wraps an engine. Metrics go to the engine's registry.
func NewServer(e *Engine) *Server {
	reg := e.Metrics()
	s := &Server{
		engine:     e,
		tracer:     e.Tracer(),
		rejected:   reg.Counter("live_ingest_rejected_total"),
		scanErrors: reg.Counter("live_ingest_scan_errors_total"),
		oversize:   reg.Counter("live_ingest_oversize_total"),
		fallback:   reg.Counter("live_ingest_jsonl_fallback_total"),
		qLatency:   make(map[string]*obs.Histogram),
		ackBinary:  reg.Histogram("live_ingest_ack_binary_seconds", ackLatencyBounds),
		ackJSONL:   reg.Histogram("live_ingest_ack_jsonl_seconds", ackLatencyBounds),
	}
	s.memo[telemetry.DerivedMiss] = reg.Counter("live_query_memo_misses_total")
	s.memo[telemetry.DerivedHit] = reg.Counter("live_query_memo_hits_total")
	s.memo[telemetry.DerivedUncached] = reg.Counter("live_query_memo_uncached_total")
	for _, ep := range []string{"share", "top-publishers", "window"} {
		s.qLatency[ep] = reg.Histogram("live_query_"+ep+"_seconds", queryLatencyBounds)
	}
	s.decoders = make(chan *wire.Decoder, runtime.GOMAXPROCS(0))
	return s
}

// decoder takes a decoder off the free list, or builds one.
func (s *Server) decoder() *wire.Decoder {
	select {
	case dec := <-s.decoders:
		return dec
	default:
		return wire.NewDecoder()
	}
}

// release puts dec back on the free list, or drops it if the list is
// full.
func (s *Server) release(dec *wire.Decoder) {
	select {
	case s.decoders <- dec:
	default:
	}
}

// Handler returns the serving plane's HTTP surface:
//
//	POST /v1/views                — ingest, binary batch frames or JSONL,
//	                                optionally gzip'd; 202 accepted,
//	                                429 + Retry-After on backpressure,
//	                                413 past wire.MaxBodyBytes
//	POST /v1/snapshot             — force an epoch cut
//	GET  /v1/query/share          — ?dim=protocol|platform|cdn&by=viewhours|views
//	GET  /v1/query/top-publishers — ?n=10
//	GET  /v1/query/window         — ?start=RFC3339&days=2
//	GET  /v1/metrics              — obs registry snapshot (JSON)
//	GET  /metrics                 — same registry, Prometheus text format
//	GET  /v1/series               — in-process time series (snapshots + rates)
//	GET  /v1/trace                — recent spans, per-stage latency
//	GET  /healthz                 — liveness
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/views", s.handleViews)
	mux.HandleFunc("/v1/snapshot", s.handleSnapshot)
	mux.HandleFunc("/v1/query/share", s.query("share", shareResponse))
	mux.HandleFunc("/v1/query/top-publishers", s.query("top-publishers", topResponse))
	mux.HandleFunc("/v1/query/window", s.query("window", windowResponse))
	obs.Mount(mux, s.engine.Metrics(), s.tracer, s.engine.Series())
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

func (s *Server) handleViews(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	defer func() { _ = r.Body.Close() }()
	ack := obs.StartWatch(s.engine.clock)
	root := s.tracer.Start("ingest.batch", 0)
	ssp := s.tracer.Start("ingest.scan", root.ID())
	dec := s.decoder()
	defer s.release(dec)
	// Two bounds, one constant: MaxBytesReader on what the connection
	// delivers, DecodeBody on what that inflates to.
	r.Body = http.MaxBytesReader(w, r.Body, wire.MaxBodyBytes)
	batch, bad, info, err := wire.DecodeBody(r.Header, r.Body, dec)
	ssp.End(obs.KV("records", int64(len(batch))), obs.KV("bad", int64(bad)),
		obs.KV("binary", boolAttr(info.Binary)), obs.KV("gzip", boolAttr(info.Gzip)),
		obs.KV("bytes", info.Bytes), obs.KV("fallback", int64(info.Fallback)))
	s.rejected.Add(int64(bad))
	s.fallback.Add(int64(info.Fallback))
	if errors.Is(err, wire.ErrUnsupportedMedia) {
		// Negotiation failure: no body bytes were consumed, nothing to
		// count against the batch — the client simply spoke a media
		// type or content coding this server does not.
		root.End(obs.KV("unsupported_media", 1))
		http.Error(w, err.Error(), http.StatusUnsupportedMediaType)
		return
	}
	if err != nil {
		// Cut-short stream (oversized line or body, truncated or corrupt
		// binary frame, bad gzip, transport error): reject the whole
		// batch so a retry is exact, and count the event.
		status := http.StatusBadRequest
		var onWire *http.MaxBytesError
		if errors.Is(err, wire.ErrBodyTooLarge) || errors.As(err, &onWire) {
			status = http.StatusRequestEntityTooLarge
			s.oversize.Add(1)
		}
		s.scanErrors.Add(1)
		s.rejected.Add(int64(len(batch)))
		root.End(obs.KV("rejected", int64(len(batch)+bad)), obs.KV("scan_error", 1))
		http.Error(w, fmt.Sprintf("read error: %v", err), status)
		return
	}
	res, err := s.engine.IngestFrames(batch, dec.Frames(), root.ID())
	if err != nil {
		cause := "wal_error"
		if errors.Is(err, ErrClosed) {
			cause = "closed"
		}
		root.End(obs.KV("records", int64(len(batch))), obs.KV(cause, 1))
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if res.Backpressured > 0 {
		// The backpressure contract: the whole batch was rejected,
		// nothing was kept, and the client should resend the same
		// batch after RetryAfter.
		secs := int(res.RetryAfter / time.Second)
		if res.RetryAfter%time.Second != 0 {
			secs++
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		w.WriteHeader(http.StatusTooManyRequests)
		fmt.Fprintf(w, `{"accepted":0,"backpressured":%d,"rejected":%d,"retry_after_ms":%d}`+"\n",
			res.Backpressured, bad, res.RetryAfter.Milliseconds())
		root.End(obs.KV("backpressured", int64(res.Backpressured)), obs.KV("rejected", int64(bad)))
		return
	}
	w.WriteHeader(http.StatusAccepted)
	fmt.Fprintf(w, `{"accepted":%d,"backpressured":0,"rejected":%d}`+"\n", res.Accepted, bad)
	// The ingest.ack SLO window closes here: POST arrival → 202 on the
	// wire, split by body encoding so the binary path's cheaper decode
	// shows up as its own distribution.
	if info.Binary {
		ack.Stop(s.ackBinary)
	} else {
		ack.Stop(s.ackJSONL)
	}
	root.End(obs.KV("accepted", int64(res.Accepted)), obs.KV("rejected", int64(bad)))
}

// boolAttr renders a bool as a 0/1 span attribute.
func boolAttr(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	g := s.engine.Snapshot()
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, `{"epoch":%d,"records":%d}`+"\n", g.Epoch, g.Records)
}

// query wraps a response builder with method checking, latency
// observation, a per-request span, and canonical serialization. The
// generation is loaded once, here: the answer, the span's epoch and
// its memo attribute all describe that generation, whatever is
// published while the response is on its way out.
func (s *Server) query(name string, build func(*telemetry.Dataset, url.Values) (any, telemetry.Derivation, error)) http.HandlerFunc {
	hist := s.qLatency[name]
	clock := s.engine.clock
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		sp := s.tracer.Start("query."+name, 0)
		start := clock.Now()
		g := s.engine.Generation()
		resp, how, err := build(g.Dataset, r.URL.Query())
		if err != nil {
			sp.End(obs.KV("ok", 0))
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		s.memo[how].Add(1)
		buf, err := MarshalResponse(resp)
		if err != nil {
			sp.End(obs.KV("ok", 0))
			http.Error(w, "encode error", http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if _, err := w.Write(buf); err != nil {
			sp.End(obs.KV("ok", 0))
			return
		}
		hist.Observe(clock.Now().Sub(start).Seconds())
		sp.End(obs.KV("ok", 1), obs.KV("epoch", g.Epoch),
			obs.KV("memo", boolAttr(how == telemetry.DerivedHit)))
	}
}

func shareResponse(ds *telemetry.Dataset, q url.Values) (any, telemetry.Derivation, error) {
	dim := q.Get("dim")
	if dim == "" {
		dim = "protocol"
	}
	return shareOver(ds, dim, q.Get("by"))
}

func topResponse(ds *telemetry.Dataset, q url.Values) (any, telemetry.Derivation, error) {
	n := 10
	if s := q.Get("n"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v <= 0 {
			return nil, 0, fmt.Errorf("live: bad n %q", s)
		}
		n = v
	}
	resp, how := topPublishersOver(ds, n)
	return resp, how, nil
}

func windowResponse(ds *telemetry.Dataset, q url.Values) (any, telemetry.Derivation, error) {
	startStr := q.Get("start")
	if startStr == "" {
		return nil, 0, fmt.Errorf("live: window query requires start=RFC3339 (or YYYY-MM-DD)")
	}
	start, err := time.Parse(time.RFC3339, startStr)
	if err != nil {
		start, err = time.Parse("2006-01-02", startStr)
	}
	if err != nil {
		return nil, 0, fmt.Errorf("live: bad start %q", startStr)
	}
	days := 2
	if d := q.Get("days"); d != "" {
		v, err := strconv.Atoi(d)
		if err != nil || v <= 0 {
			return nil, 0, fmt.Errorf("live: bad days %q", d)
		}
		days = v
	}
	resp, how := windowOver(ds, start, days)
	return resp, how, nil
}
