// Package scenario runs the serving plane's commands as processes, end
// to end: vmpd boots on a free port, vmpgen (or an in-process
// wire.Client) streams a dataset slice into it, a fault ends the boot,
// and what survived is held to exact contents — the /v1/metrics
// counters, query bytes equal to offline vmpstudy over the surviving
// records, and acked ⊆ recovered ⊆ sent as multisets of JSON lines.
// Every scenario is one value in the table below; there is no step
// interpreter. The package has no non-test code.
package scenario

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"vmp/internal/obs"
	"vmp/internal/telemetry"
	"vmp/internal/wire"
)

// raceEnabled is set by race_test.go: the race detector instruments
// this test, not the binaries it launches, so the scenarios skip.
var raceEnabled bool

// fault is what ends a scenario's first boot.
type fault int

const (
	none            fault = iota // SIGTERM, which must exit 0
	killAfterStream              // SIGKILL once every record is acked, then boot again
	killMidStream                // SIGKILL once ≥ 500 records are acked, mid-stream, then boot again
	refusedRestart               // SIGTERM; a boot with the same flags must exit non-zero before it listens; then boot again
)

// walDir and viewsFile stand, in a scenario's flags, for its WAL
// directory and the dataset slice every scenario sends.
const (
	walDir    = "$WAL"
	viewsFile = "$VIEWS"
)

type scenario struct {
	name string
	// topology: the vmpd flags of the first boot, and of the boot
	// after the fault (nil: the same). Every boot also gets a free
	// -addr and a -dump of what it holds when it drains.
	vmpd, reboot []string
	// traffic: vmpgen -post flags, or with inProcess shuffled binary
	// batches through wire.Client (drive), the acked set kept in
	// memory. With neither, -load is the traffic.
	post      []string
	inProcess bool
	fault     fault
	// check asserts what only this scenario needs, against the boot
	// that serves the final answers, before it drains.
	check func(t *testing.T, b *boot)
}

var scenarios = []scenario{
	{name: "jsonl", vmpd: []string{"-epoch", "1h"}, post: []string{"-encode", "jsonl"}, check: observed},
	{name: "binary_gzip", vmpd: []string{"-epoch", "1h"}, post: []string{"-encode", "binary", "-compress"},
		check: func(t *testing.T, b *boot) { ackP50(t, b.metrics(t), "binary") }},
	{name: "shuffled_binary", vmpd: []string{"-epoch", "1h"}, inProcess: true},
	{name: "load_dump", vmpd: []string{"-epoch", "1h", "-load", viewsFile}},
	{name: "kill_after_stream", vmpd: []string{"-epoch", "24h", "-wal-dir", walDir},
		post: []string{"-encode", "jsonl"}, fault: killAfterStream},
	{name: "kill_mid_stream", vmpd: []string{"-epoch", "24h", "-wal-dir", walDir},
		inProcess: true, fault: killMidStream},
	{name: "load_refused_on_a_replayed_wal", vmpd: []string{"-epoch", "24h", "-wal-dir", walDir, "-load", viewsFile},
		reboot: []string{"-epoch", "24h", "-wal-dir", walDir}, fault: refusedRestart},
}

// harness is what every scenario shares: the binaries, the dataset
// slice, and the answers already computed.
type harness struct {
	bin, views string
	sent       []string               // the slice's lines
	recs       []telemetry.ViewRecord // the same, decoded, for drive
	slice      [32]byte               // the slice's SHA-256
	offline    map[[32]byte]string    // vmpstudy's share and top answers, by the SHA-256 of the file it read
	full       *answers               // the first answers served over the whole slice
}

// answers are one boot's query responses: share and top concatenated,
// as vmpstudy -share -top prints them, and the window.
type answers struct{ shareTop, window string }

func TestScenarios(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("boots real processes: skipped under -short, and under -race, which does not reach them")
	}
	h := &harness{bin: t.TempDir(), offline: map[[32]byte]string{}}
	cmds := []string{"vmp/cmd/vmpd", "vmp/cmd/vmpgen", "vmp/cmd/vmpstudy", "vmp/cmd/vmptop", "vmp/examples/live-pipeline"}
	if out, err := exec.Command("go", append([]string{"build", "-o", h.bin}, cmds...)...).CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	// go test caches a pass by the files the test opened, and the
	// commands are none of its imports: listing every directory they
	// are built from ties the cached result to their sources.
	dirs, err := exec.Command("go", append([]string{"list", "-deps", "-f", "{{if not .Standard}}{{.Dir}}{{end}}"}, cmds...)...).Output()
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range strings.Split(strings.TrimSpace(string(dirs)), "\n") {
		if _, err := os.ReadDir(dir); err != nil {
			t.Fatal(err)
		}
	}
	h.views = filepath.Join(h.bin, "views.jsonl")
	h.run(t, "vmpgen", "-stride", "24", "-o", h.views)
	data, err := os.ReadFile(h.views)
	if err != nil {
		t.Fatal(err)
	}
	h.sent, h.slice = lines(data), sha256.Sum256(data)
	if h.recs, _, err = telemetry.ScanJSONL(bytes.NewReader(data)); err != nil || len(h.recs) != len(h.sent) {
		t.Fatalf("reading the slice: %d records of %d lines, %v", len(h.recs), len(h.sent), err)
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) { h.scenario(t, sc) })
	}
	t.Run("live_pipeline_example", func(t *testing.T) {
		// Everything after the first line (the ephemeral listen
		// address) is deterministic: the generator is seeded.
		out := h.run(t, "live-pipeline")
		if _, got, _ := strings.Cut(out, "\n"); got != examplePrints {
			t.Fatalf("examples/live-pipeline printed:\n%s", out)
		}
	})
}

const examplePrints = `reported 18444 view records from 112 publishers' sensors
backend stored 18444 records (1710380 view-hours represented)

protocols per publisher (from wire-delivered records):
  1 protocol(s):  41.1% of publishers,   5.2% of view-hours
  2 protocol(s):  33.0% of publishers,  51.4% of view-hours
  3 protocol(s):  25.0% of publishers,  43.4% of view-hours
  4 protocol(s):   0.9% of publishers,   0.0% of view-hours

view-hour share by protocol:
  HLS               56.7%
  DASH              41.9%
  SmoothStreaming    1.3%
  HDS                0.0%
`

// scenario runs one spec: boot, traffic, fault, the boot after it, and
// the shared assertions over the boot that serves last.
func (h *harness) scenario(t *testing.T, sc scenario) {
	dir := t.TempDir()
	flags := func(fs []string) []string {
		r := strings.NewReplacer(walDir, filepath.Join(dir, "wal"), viewsFile, h.views)
		out := []string{"-dump", filepath.Join(dir, "dump.jsonl")}
		for _, f := range fs {
			out = append(out, r.Replace(f))
		}
		return out
	}
	b := h.boot(t, flags(sc.vmpd), true)
	sent, acked := h.sent, h.sent
	switch {
	case sc.post != nil:
		h.run(t, "vmpgen", append([]string{"-stride", "24", "-post", b.url}, sc.post...)...)
	case sc.inProcess:
		sent, acked = h.drive(t, b, sc.fault == killMidStream)
	}
	switch sc.fault {
	case killAfterStream:
		b.kill()
	case refusedRestart:
		b.stop(t)
		if r := h.boot(t, flags(sc.vmpd), false); r.err == nil || !strings.Contains(r.output(), "-load") {
			t.Fatalf("restart exited with %v; want a non-zero exit naming -load:\n%s", r.err, r.output())
		}
	}
	if sc.fault != none {
		if sc.reboot == nil {
			sc.reboot = sc.vmpd
		}
		b = h.boot(t, flags(sc.reboot), true)
	}
	h.assert(t, b, sc, dir, sent, acked)
}

// assert holds the shared contract over the serving boot b: its
// counters are exact, every query asked twice answers the same bytes
// (the second from the memo) and equals offline vmpstudy over what
// survived, it drains on SIGTERM with exit 0, and what survived holds
// every acked record and nothing that was not sent.
func (h *harness) assert(t *testing.T, b *boot, sc scenario, dir string, sent, acked []string) {
	var snap struct{ Records int }
	if err := json.Unmarshal(b.ask(t, http.MethodPost, "/v1/snapshot"), &snap); err != nil {
		t.Fatal(err)
	}
	m := b.metrics(t)
	var got [2]answers
	for i := range got {
		got[i] = answers{
			shareTop: string(b.ask(t, "GET", "/v1/query/share?dim=protocol")) + string(b.ask(t, "GET", "/v1/query/top-publishers?n=10")),
			window:   string(b.ask(t, "GET", "/v1/query/window?start=2016-01-01&days=3")),
		}
	}
	if got[0] != got[1] {
		t.Errorf("a query answered differently the second time it was asked:\n%+v\n%+v", got[0], got[1])
	}
	if hits := b.metrics(t).Counters["live_query_memo_hits_total"]; hits == 0 {
		t.Error("no second asking was answered from the generation's memo")
	}
	if sc.check != nil {
		sc.check(t, b)
	}
	b.stop(t)

	file := filepath.Join(dir, "dump.jsonl")
	dump, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	survived := lines(dump)
	if n := len(survived); snap.Records != n || m.Counters["live_ingest_records_total"] != int64(n) || m.Counters["live_ingest_backpressured_total"] != 0 {
		t.Errorf("snapshot records %d, ingest counter %d, backpressured %d; want %d, %d, 0",
			snap.Records, m.Counters["live_ingest_records_total"], m.Counters["live_ingest_backpressured_total"], n, n)
	}
	if lost := missing(acked, survived); lost != "" {
		t.Errorf("%d acked, %d survived: acked records lost, e.g. %s", len(acked), len(survived), lost)
	}
	if invented := missing(survived, sent); invented != "" {
		t.Errorf("%d sent, %d survived: records never sent, e.g. %s", len(sent), len(survived), invented)
	}
	if off := h.vmpstudy(t, sha256.Sum256(dump), file); got[0].shareTop != off {
		t.Errorf("online answers differ from offline vmpstudy over the %d surviving records:\nonline  %s\noffline %s", len(survived), got[0].shareTop, off)
	}
	if len(survived) == len(h.sent) { // then the multiset is the whole slice
		if off := h.vmpstudy(t, h.slice, h.views); got[0].shareTop != off {
			t.Errorf("online answers differ from offline vmpstudy over the slice itself:\nonline  %s\noffline %s", got[0].shareTop, off)
		}
		if h.full == nil {
			h.full = &got[0]
		} else if got[0] != *h.full {
			t.Errorf("answers over the whole slice differ from an earlier scenario's:\n%+v\n%+v", got[0], *h.full)
		}
	}
	entries, _ := os.ReadDir(filepath.Join(dir, "wal")) // none without a WAL
	for _, e := range entries {
		seg, _ := filepath.Match("seg-*.wal", e.Name())
		if ckpt, _ := filepath.Match("checkpoint-*.ckpt", e.Name()); !seg && !ckpt {
			t.Errorf("the WAL dir holds %s; want only seg-*.wal and checkpoint-*.ckpt", e.Name())
		}
	}
}

// drive posts the slice through wire.Client as binary frames in
// 100-record batches, in a seeded shuffled order the cut must put back
// into canonical order, and cuts an epoch after half of them, so the
// cut assert asks for merges the rest into a published generation
// rather than building one from empty; with kill, it SIGKILLs vmpd once
// ≥ 500 records are acked. sent is every record of a batch whose POST
// began, acked those of the 202s.
func (h *harness) drive(t *testing.T, b *boot, kill bool) (sent, acked []string) {
	var ackedN atomic.Int64
	done := make(chan error, 1)
	go func() {
		c := wire.NewClient(&http.Client{Timeout: 30 * time.Second}, true, false, 1)
		var err error
		batches := rand.New(rand.NewSource(1)).Perm((len(h.recs) + 99) / 100)
		for n, i := range batches {
			if n == len(batches)/2 {
				if err = snapshot(b.url); err != nil {
					break
				}
			}
			lo, hi := i*100, min(i*100+100, len(h.recs))
			var body []byte
			if body, err = c.Encode(h.recs[lo:hi]); err == nil {
				sent = append(sent, h.sent[lo:hi]...)
				_, err = c.Send(context.Background(), b.url+"/v1/views", body, 0)
			}
			if err != nil {
				break
			}
			acked = append(acked, h.sent[lo:hi]...)
			ackedN.Store(int64(len(acked)))
		}
		done <- err
	}()
	if kill {
		eventually(t, "500 acked records", func() bool { return ackedN.Load() >= 500 })
		b.kill()
	}
	if err := <-done; (err != nil) != kill {
		t.Fatalf("drive ended with %v after %d of %d records acked (kill %v)", err, len(acked), len(h.recs), kill)
	}
	return sent, acked
}

// snapshot cuts an epoch with POST /v1/snapshot.
func snapshot(url string) error {
	resp, err := http.Post(url+"/v1/snapshot", "", nil)
	if err != nil {
		return err
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST /v1/snapshot: %s", resp.Status)
	}
	return nil
}

// vmpstudy returns offline vmpstudy's share and top answers over file,
// whose SHA-256 is key.
func (h *harness) vmpstudy(t *testing.T, key [32]byte, file string) string {
	if _, ok := h.offline[key]; !ok {
		h.offline[key] = h.run(t, "vmpstudy", "-input", file, "-share", "protocol", "-top", "10")
	}
	return h.offline[key]
}

// run runs one of the built commands to completion and returns its
// stdout; a non-zero exit fails the test.
func (h *harness) run(t *testing.T, name string, args ...string) string {
	t.Helper()
	var stderr bytes.Buffer
	cmd := exec.Command(filepath.Join(h.bin, name), args...)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("%s %s: %v\n%s", name, strings.Join(args, " "), err, stderr.Bytes())
	}
	return string(out)
}

// boot is one vmpd process.
type boot struct {
	cmd  *exec.Cmd
	url  string
	log  string // the file its stdout and stderr go to
	done chan struct{}
	err  error // Wait's, once done is closed
}

// boot starts vmpd on a free port. With healthy it returns once
// /healthz answers (it opens after replay); without, once vmpd has
// exited, and fails the test if /healthz ever answered.
func (h *harness) boot(t *testing.T, flags []string, healthy bool) *boot {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close() // vmpd binds it next: it cannot report a port of its own choosing
	log, err := os.CreateTemp(t.TempDir(), "vmpd-*.log")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = log.Close() }() // the process holds its own copy
	b := &boot{url: "http://" + addr, log: log.Name(), done: make(chan struct{})}
	b.cmd = exec.Command(filepath.Join(h.bin, "vmpd"), append([]string{"-addr", addr}, flags...)...)
	b.cmd.Stdout, b.cmd.Stderr = log, log
	if err := b.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() { b.err = b.cmd.Wait(); close(b.done) }()
	t.Cleanup(b.kill)
	eventually(t, "vmpd", func() bool {
		select {
		case <-b.done:
			if healthy {
				t.Fatalf("vmpd exited before it was healthy (%v):\n%s", b.err, b.output())
			}
			return true
		default:
		}
		resp, err := http.Get(b.url + "/healthz")
		if err != nil {
			return false
		}
		_ = resp.Body.Close()
		if !healthy {
			t.Fatalf("vmpd listened; want it refused at boot:\n%s", b.output())
		}
		return resp.StatusCode == http.StatusOK
	})
	return b
}

func (b *boot) output() string {
	out, _ := os.ReadFile(b.log) // a log that cannot be read just shows empty
	return string(out)
}

// kill SIGKILLs the process: no drain, no dump, no final epoch.
func (b *boot) kill() {
	_ = b.cmd.Process.Kill() // fails only once it has exited
	<-b.done
}

// stop SIGTERMs the process and requires a clean drain.
func (b *boot) stop(t *testing.T) {
	if err := b.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if <-b.done; b.err != nil {
		t.Fatalf("vmpd exited %v on SIGTERM:\n%s", b.err, b.output())
	}
}

// ask sends one request to vmpd and requires a 200.
func (b *boot) ask(t *testing.T, method, path string) []byte {
	t.Helper()
	req, err := http.NewRequest(method, b.url+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("%s %s: %s %v\n%s", method, path, resp.Status, err, body)
	}
	return body
}

func (b *boot) metrics(t *testing.T) obs.Snapshot {
	var m obs.Snapshot
	if err := json.Unmarshal(b.ask(t, "GET", "/v1/metrics"), &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// ackP50 requires one encoding's ingest.ack histogram to have a
// positive median.
func ackP50(t *testing.T, m obs.Snapshot, encoding string) {
	name := "live_ingest_ack_" + encoding + "_seconds"
	if p50 := m.Histograms[name].Quantiles["p50"]; p50 <= 0 {
		t.Errorf("%s p50 = %v, want > 0", name, p50)
	}
}

var promLine = regexp.MustCompile(`^(# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram)|[a-zA-Z_:][a-zA-Z0-9_:]*(_bucket\{le="[^"]+"\})? [0-9eE.+-]+)$`)

// observed holds the self-measurement plane after a vmpgen JSONL drive:
// the ack histogram has a median, every line took the fast parser,
// /metrics is Prometheus text 0.0.4 (every line a TYPE comment or a
// sample) with the ingest counter and ack histogram, /v1/series
// reaches the ingest counter, vmptop -once renders its ingest and
// runtime rows, and /v1/trace recorded the cut and its publication.
func observed(t *testing.T, b *boot) {
	m := b.metrics(t)
	ackP50(t, m, "jsonl")
	if n := m.Counters["live_ingest_jsonl_fallback_total"]; n != 0 {
		t.Errorf("live_ingest_jsonl_fallback_total = %d after a vmpgen drive, want 0", n)
	}
	records := m.Counters["live_ingest_records_total"]
	page := string(b.ask(t, "GET", "/metrics"))
	for _, line := range lines([]byte(page)) {
		if !promLine.MatchString(line) {
			t.Errorf("/metrics line breaks the exposition grammar: %q", line)
		}
	}
	for _, want := range []string{fmt.Sprintf("\nlive_ingest_records_total %d\n", records), "\n# TYPE live_ingest_ack_jsonl_seconds histogram\n"} {
		if !strings.Contains("\n"+page, want) {
			t.Errorf("/metrics has no line %q", strings.TrimSpace(want))
		}
	}
	want := fmt.Sprintf(`"live_ingest_records_total":%d`, records)
	eventually(t, "a /v1/series sample with "+want, func() bool {
		return strings.Contains(string(b.ask(t, "GET", "/v1/series")), want)
	})
	out, err := exec.Command(filepath.Join(filepath.Dir(b.cmd.Path), "vmptop"), "-addr", b.url, "-once").Output()
	if err != nil || !strings.Contains(string(out), "ingest") || !strings.Contains(string(out), "runtime") {
		t.Errorf("vmptop -once: %v; want ingest and runtime rows:\n%s", err, out)
	}
	trace := string(b.ask(t, "GET", "/v1/trace"))
	for _, want := range []string{`"name":"epoch.cut"`, `"type":"generation_published"`} {
		if !strings.Contains(trace, want) {
			t.Errorf("/v1/trace has no %s", want)
		}
	}
}

// lines splits a JSONL file into its lines.
func lines(data []byte) []string {
	if len(data) == 0 {
		return nil
	}
	return strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
}

// missing returns a line of sub that super lacks, counting repeats (a
// multiset inclusion test), or "" when sub ⊆ super.
func missing(sub, super []string) string {
	n := make(map[string]int, len(super))
	for _, l := range super {
		n[l]++
	}
	for _, l := range sub {
		if n[l]--; n[l] < 0 {
			return l
		}
	}
	return ""
}

// eventually polls cond for up to 20 s.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(20 * time.Second); !cond(); time.Sleep(20 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}
