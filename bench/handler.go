package main

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"vmp/internal/live"
	"vmp/internal/obs"
	"vmp/internal/wire"
)

// tracedHandler mirrors live.Server's ingest and query handlers stage
// for stage, calling the same public functions of each layer with a
// bench span around every call:
//
//	POST /v1/views:    nethttp.read_body → wire.decode → live.admit ⊃ wal.append → nethttp.respond
//	GET  /v1/query/*:  live.query_<name> → live.query_marshal → nethttp.respond
//
// Status codes, headers and bodies are byte-identical to live.Server
// (handler_test.go compares them), and the /v1/stats counters are kept.
// Not mirrored: live.Server's own obs spans and its ack and query
// latency histograms. Two deliberate differences in behaviour: the body
// is read into memory before it is decoded, so that time on the
// connection and time in wire are separate spans, and admissions take
// a lock so the WAL hook knows which request it is appending for. The
// engine's own ingestMu serializes admission anyway; the lock only
// moves the wait in front of the hash partition. Every other route
// falls through to the production handler.
type tracedHandler struct {
	engine *live.Engine
	rec    *recorder
	wal    *tracedWAL // nil without a WAL
	mux    *http.ServeMux

	// The counters live.Server keeps for /v1/stats, by the same names.
	rejected   *obs.Counter
	scanErrors *obs.Counter

	admitMu  sync.Mutex
	decoders sync.Pool
	bodies   sync.Pool
}

func newTracedHandler(e *live.Engine, rec *recorder, w *tracedWAL, fallback http.Handler) http.Handler {
	h := &tracedHandler{
		engine: e, rec: rec, wal: w, mux: http.NewServeMux(),
		rejected:   e.Metrics().Counter("live_ingest_rejected_total"),
		scanErrors: e.Metrics().Counter("live_ingest_scan_errors_total"),
	}
	h.decoders.New = func() any { return wire.NewDecoder() }
	h.bodies.New = func() any { return new(bytes.Buffer) }
	h.mux.HandleFunc("/v1/views", h.handleViews)
	h.mux.HandleFunc("/v1/query/share", h.query("share", h.shareResponse))
	h.mux.HandleFunc("/v1/query/top-publishers", h.query("top", h.topResponse))
	h.mux.HandleFunc("/v1/query/window", h.query("window", h.windowResponse))
	h.mux.Handle("/", fallback)
	return h.mux
}

func (h *tracedHandler) handleViews(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	defer func() { _ = r.Body.Close() }()
	root := h.rec.start("handler.views", 0, 0)
	defer root.end()

	sp := h.rec.start("nethttp.read_body", root.id, root.req)
	buf := h.bodies.Get().(*bytes.Buffer)
	defer h.bodies.Put(buf)
	buf.Reset()
	_, rerr := buf.ReadFrom(r.Body)
	sp.end()

	sp = h.rec.start("wire.decode", root.id, root.req)
	dec := h.decoders.Get().(*wire.Decoder)
	defer h.decoders.Put(dec)
	batch, bad, _, err := wire.DecodeBody(r.Header, buf, dec)
	if err == nil && rerr != nil {
		batch, err = nil, rerr
	}
	sp.end()
	h.rejected.Add(int64(bad))

	if err != nil {
		sp = h.rec.start("nethttp.respond", root.id, root.req)
		defer sp.end()
		if errors.Is(err, wire.ErrUnsupportedMedia) {
			http.Error(w, err.Error(), http.StatusUnsupportedMediaType)
			return
		}
		h.scanErrors.Add(1)
		h.rejected.Add(int64(len(batch)))
		http.Error(w, fmt.Sprintf("read error: %v", err), http.StatusBadRequest)
		return
	}

	sp = h.rec.start("live.admit", root.id, root.req)
	h.admitMu.Lock()
	if h.wal != nil {
		h.wal.admitParent, h.wal.admitReq = sp.id, sp.req
	}
	res, err := h.engine.IngestSpan(batch, 0)
	h.admitMu.Unlock()
	sp.end()

	sp = h.rec.start("nethttp.respond", root.id, root.req)
	defer sp.end()
	if err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if res.Backpressured > 0 {
		secs := int(res.RetryAfter / time.Second)
		if res.RetryAfter%time.Second != 0 {
			secs++
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		w.WriteHeader(http.StatusTooManyRequests)
		fmt.Fprintf(w, `{"accepted":0,"backpressured":%d,"rejected":%d,"retry_after_ms":%d}`+"\n",
			res.Backpressured, bad, res.RetryAfter.Milliseconds())
		return
	}
	w.WriteHeader(http.StatusAccepted)
	fmt.Fprintf(w, `{"accepted":%d,"backpressured":0,"rejected":%d}`+"\n", res.Accepted, bad)
}

// query mirrors live.Server.query: build, marshal to memory, respond.
func (h *tracedHandler) query(name string, build func(*http.Request) (any, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		root := h.rec.start("handler.query", 0, 0)
		defer root.end()
		sp := h.rec.start("live.query_"+name, root.id, root.req)
		resp, err := build(r)
		sp.end()
		var buf []byte
		if err == nil {
			sp = h.rec.start("live.query_marshal", root.id, root.req)
			buf, err = live.MarshalResponse(resp)
			sp.end()
			if err != nil {
				err = errEncode
			}
		}
		sp = h.rec.start("nethttp.respond", root.id, root.req)
		defer sp.end()
		switch {
		case errors.Is(err, errEncode):
			http.Error(w, "encode error", http.StatusInternalServerError)
		case err != nil:
			http.Error(w, err.Error(), http.StatusBadRequest)
		default:
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write(buf) // a write error means the client is gone
		}
	}
}

var errEncode = errors.New("encode error")

func (h *tracedHandler) shareResponse(r *http.Request) (any, error) {
	dim := r.URL.Query().Get("dim")
	if dim == "" {
		dim = "protocol"
	}
	return live.ShareOver(h.engine.Generation().Dataset, dim, r.URL.Query().Get("by"))
}

func (h *tracedHandler) topResponse(r *http.Request) (any, error) {
	n := 10
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("live: bad n %q", q)
		}
		n = v
	}
	return live.TopPublishersOver(h.engine.Generation().Dataset, n), nil
}

func (h *tracedHandler) windowResponse(r *http.Request) (any, error) {
	q := r.URL.Query()
	startStr := q.Get("start")
	if startStr == "" {
		return nil, fmt.Errorf("live: window query requires start=RFC3339 (or YYYY-MM-DD)")
	}
	start, err := time.Parse(time.RFC3339, startStr)
	if err != nil {
		start, err = time.Parse("2006-01-02", startStr)
	}
	if err != nil {
		return nil, fmt.Errorf("live: bad start %q", startStr)
	}
	days := 2
	if d := q.Get("days"); d != "" {
		v, err := strconv.Atoi(d)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("live: bad days %q", d)
		}
		days = v
	}
	return live.WindowOver(h.engine.Generation().Dataset, start, days), nil
}
