package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"vmp/internal/simclock"
	"vmp/internal/telemetry"
)

// options are one invocation's settings.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	quick    bool
	out      string
}

// setupPasses is how many times a run sets up; setup_s is the median,
// so one slow pass does not read as a regression.
const setupPasses = 3

// metric is one reported value and how many observations it rests on.
// Wall is set on a calibrated time: the wall-clock value that Value is
// the reference-speed reading of (see thermometer.go).
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
	Wall    float64 `json:"wall,omitempty"`
}

// run is one workload run: its inputs, what it observed, and the
// metrics it reports.
type run struct {
	opt     options
	ctx     context.Context
	clock   simclock.Clock
	scratch string // directory for WAL files, inside the checkout

	recs []telemetry.ViewRecord // the seed's dataset
	mix  []query

	setupThermo []float64 // thermometer readings beside the set-up passes
	runThermo   []float64 // and beside the measured work
	attempted   int64
	failed      int64
	problems    []string // every failed operation and verification mismatch
	notes       []string // remarks printed under the metric table
	metrics     map[string]metric
	series      map[string][]float64 // the wall-clock observations, in order, behind the metrics that are medians over passes, rounds or cuts
	spans       []span               // every span of the traced rounds
}

func newRun(ctx context.Context, opt options) *run {
	return &run{opt: opt, ctx: ctx, clock: simclock.Wall(), metrics: make(map[string]metric), series: make(map[string][]float64)}
}

// units maps every metric name to its unit.
var units = func() map[string]string {
	u := make(map[string]string)
	for _, m := range endToEnd {
		u[m.Name] = m.Unit
	}
	for _, m := range perLayer {
		u[m.Name] = m.Unit
	}
	return u
}()

// set records a metric. Only names in the catalogue may be set. A
// value that is not a number (a ratio over nothing) is a failure of
// the run, reported as such instead of written out.
func (r *run) set(name string, value float64, samples int) {
	unit, ok := units[name]
	if !ok {
		panic("bench: metric " + name + " is not in the catalogue")
	}
	if math.IsNaN(value) || math.IsInf(value, 0) {
		r.fail(1, "metric %s came out as %v", name, value)
		value = 0
	}
	r.metrics[name] = metric{Value: value, Unit: unit, Samples: samples}
}

// setTime records a time as the time it would have been at the
// reference speed: the wall-clock value scaled by what the thermometer
// read beside it. The wall-clock value is kept with it.
func (r *run) setTime(name string, wall float64, samples int, readings []float64) {
	r.set(name, wall*speed(readings), samples)
	m := r.metrics[name]
	m.Wall = wall
	r.metrics[name] = m
}

// fail counts n failed operations and says why.
func (r *run) fail(n int64, format string, args ...any) {
	r.failed += n
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// noteTail remarks on the tail of a latency sample: the highest
// percentile that still has ten samples beyond it. Anything higher
// would rest on a handful of slow requests.
func (r *run) noteTail(what string, sorted []float64) {
	p := highestSupported(len(sorted))
	r.notes = append(r.notes, fmt.Sprintf("%s: p50 %.3f ms, p%g %.3f ms, max %.3f ms over %d samples (p%g is the highest percentile with ten samples beyond it)",
		what, percentile(sorted, 0.5), 100*p, percentile(sorted, p), sorted[len(sorted)-1], len(sorted), 100*p))
}

// count folds a POST sequence's tallies into the run's.
func (r *run) count(st *postStats) {
	r.attempted += st.attempted
	if st.failed > 0 {
		r.fail(st.failed, "%d POSTs were not acked with a 202", st.failed)
	}
}

// passes is how many set-up passes this run makes.
func (r *run) passes() int {
	if r.opt.quick {
		return 1
	}
	return setupPasses
}

// setup runs pass the configured number of times and reports the
// median as setup_s. Every pass builds the same state from the seed;
// the state of the last pass is the one the run measures on. A pass
// may return an undo that releases what it built; undo runs untimed
// after every pass but the last.
func (r *run) setup(pass func() (undo func() error, err error)) error {
	n := r.passes()
	var took []float64
	for i := 0; i < n; i++ {
		runtime.GC() // each pass starts from the same heap, not from the garbage of the one before
		r.thermo(&r.setupThermo)
		start := r.clock.Now()
		undo, err := pass()
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		took = append(took, r.clock.Now().Sub(start).Seconds())
		if i < n-1 && undo != nil {
			if err := undo(); err != nil {
				return fmt.Errorf("set-up: %w", err)
			}
		}
	}
	r.thermo(&r.setupThermo)
	r.setTime("setup_s", median(took), len(took), r.setupThermo)
	r.series["setup_s"] = took
	return nil
}

// generate builds the seed's dataset and query mix. It is the part of
// set-up every workload shares.
func (r *run) generate() {
	recs, windowStart := generate(r.opt.studyConfig(r.opt.seed))
	r.recs = recs
	r.mix = queryMix(windowStart)
}

// budget is how long the run measures for.
func (r *run) budget() time.Duration { return time.Duration(r.opt.seconds) * time.Second }

// checkAnswers compares got with want path by path; every mismatch is
// one failed operation. who names the side that produced got.
func (r *run) checkAnswers(who string, got, want map[string][]byte) {
	for _, q := range r.mix {
		r.attempted++
		if !bytes.Equal(got[q.path], want[q.path]) {
			r.fail(1, "%s: %s answered %q, want %q", who, q.path, clip(got[q.path]), clip(want[q.path]))
		}
	}
}

// fetchAnswers GETs the query mix from a live plane.
func (r *run) fetchAnswers(c *client) map[string][]byte {
	out := make(map[string][]byte, len(r.mix))
	for _, q := range r.mix {
		status, b, err := c.get(r.ctx, q.path)
		if err != nil || status != 200 {
			b = []byte(fmt.Sprintf("status %d err %v: %s", status, err, b))
		}
		out[q.path] = b
	}
	return out
}

func clip(b []byte) string {
	if len(b) > 120 {
		return string(b[:120]) + "…"
	}
	return string(b)
}

// heapInUse returns the live heap after a full collection.
func heapInUse() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc)
}

// memDelta is what the Go runtime did across a stretch of work.
type memDelta struct {
	before runtime.MemStats
}

func startMem() *memDelta {
	d := &memDelta{}
	runtime.ReadMemStats(&d.before)
	return d
}

// setRuntime reports the runtime layer for the work since startMem.
func (d *memDelta) setRuntime(r *run, records int64) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	r.set("runtime.num_gc", float64(after.NumGC-d.before.NumGC), 1)
	r.set("runtime.gc_pause_total_ms", float64(after.PauseTotalNs-d.before.PauseTotalNs)/1e6, 1)
	if records > 0 {
		r.set("runtime.alloc_bytes_per_record", float64(after.TotalAlloc-d.before.TotalAlloc)/float64(records), 1)
	}
}

// dirSizes walks dir and returns the bytes in checkpoint files and in
// everything else (segments).
func dirSizes(dir string) (checkpoint, segment int64, err error) {
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		if strings.HasSuffix(path, ".ckpt") {
			checkpoint += info.Size()
		} else {
			segment += info.Size()
		}
		return nil
	})
	return checkpoint, segment, err
}

// copyDir copies the regular files under src to dst. Taken while the
// writer is quiescent, the copy is what a kill -9 would leave behind:
// every acked byte is already on disk under the batch fsync policy.
// Each copy is synced so that the kernel is not still writing the
// image back while recovery from it is being timed.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer func() { _ = in.Close() }()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		_, err = io.Copy(out, in)
		if err == nil {
			err = out.Sync()
		}
		if cerr := out.Close(); err == nil {
			err = cerr
		}
		return err
	})
}

// stageMS returns the mean self time per span of name, in ms.
func stageMS(stats map[string]*stageStat, name string) (float64, int) {
	st := stats[name]
	if st == nil {
		return 0, 0
	}
	return st.selfMS(), st.Count
}

// setRequestLayers reports the layers a traced request or cut
// crosses, from the self times of their spans. rtt holds the client's
// send → ack times of the POSTs the traced handler served, and
// cutRecords the records each cut published.
func (r *run) setRequestLayers(stats map[string]*stageStat, rtt, cutRecords []float64) {
	for _, m := range [][2]string{
		{"wire.decode_ms_per_batch", "wire.decode"},
		{"live.admit_ms_per_batch", "live.admit"},
		{"live.cut_ms", "live.cut"},
		{"live.query_share_ms", "live.query_share"},
		{"live.query_top_ms", "live.query_top"},
		{"live.query_window_ms", "live.query_window"},
		{"live.query_marshal_ms", "live.query_marshal"},
		{"wal.append_ms_per_batch", "wal.append"},
		{"wal.commit_ms", "wal.commit"},
		{"nethttp.read_body_ms", "nethttp.read_body"},
		{"nethttp.respond_ms", "nethttp.respond"},
	} {
		v, n := stageMS(stats, m[1])
		r.set(m[0], v, n)
	}
	if cut, n := stageMS(stats, "live.cut"); n > 0 && len(cutRecords) > 0 {
		r.set("live.cut_ms_per_krec", cut/(mean(cutRecords)/1000), n)
	}
	posted := mean(rtt) * float64(len(rtt))
	if d := stats["wire.decode"]; d != nil && posted > 0 {
		r.set("wire.decode_share", ms(d.Self)/posted, d.Count)
	}
	if h := stats["handler.views"]; h != nil {
		r.set("nethttp.residual_ms_per_post", mean(rtt)-ms(h.Total)/float64(h.Count), h.Count)
	}
}

// setProbeLayers reports what the in-process probes measured.
func (r *run) setProbeLayers(p *layerProbes) {
	r.set("live.query_alloc_bytes_per_op", mean(p.queryAllocBytes), len(p.queryAllocBytes))
	r.set("telemetry.sort_ms", mean(p.sortMS), len(p.sortMS))
	r.set("telemetry.freeze_ms", mean(p.freezeMS), len(p.freezeMS))
	r.set("obs.sample_ms", mean(p.sampleMS), len(p.sampleMS))
	r.set("obs.metrics_render_ms", mean(p.metricsMS), len(p.metricsMS))
}
