package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// A quick traced pass of every workload must verify its answers, fail
// nothing, and produce every metric of both kinds; and each workload
// must load the layers it was chosen for and leave alone the ones it
// bypasses.
func TestQuickPassProducesEveryMetric(t *testing.T) {
	perWorkload := map[string]struct{ nonzero, zero []string }{
		"ingest_wal": {
			nonzero: []string{"wire.decode_ms_per_batch", "live.admit_ms_per_batch", "live.cut_ms", "wal.append_ms_per_batch",
				"wal.fsyncs_per_batch", "wal.commit_ms", "wal.bytes_per_record", "wal.open_ms", "wal.replay_ms", "wal.recovery_ms",
				"telemetry.sort_ms", "telemetry.freeze_ms", "obs.sample_ms", "obs.metrics_render_ms", "nethttp.read_body_ms",
				"runtime.alloc_bytes_per_record", "client.ack_p95_ms", "client.ack_max_ms"},
			zero: []string{"core.generate_ms", "client.query_p95_ms", "live.backpressured_batches", "client.retries"},
		},
		"ingest_jsonl": {
			nonzero: []string{"wire.decode_ms_per_batch", "wire.decode_share", "live.admit_ms_per_batch", "live.cut_ms", "client.ack_p99_ms"},
			zero: []string{"wal.append_ms_per_batch", "wal.fsyncs_per_batch", "wal.commit_ms", "wal.bytes_per_record", "wal.open_ms",
				"wal.replay_ms", "wal.recovery_ms", "core.figures_ms"},
		},
		"serve_mixed": {
			nonzero: []string{"live.cut_ms", "live.cut_ms_per_krec", "live.query_share_ms", "live.query_top_ms", "live.query_window_ms",
				"live.query_marshal_ms", "live.query_alloc_bytes_per_op", "wal.commit_ms", "wal.checkpoint_bytes_per_commit",
				"client.query_p95_ms", "client.query_p99_ms", "client.mixed_ack_p50_ms", "client.mixed_ack_p95_ms", "client.max_late_ms"},
			zero: []string{"wal.open_ms", "wal.recovery_ms", "core.render_ms", "client.ack_p99_ms"},
		},
		"study_offline": {
			nonzero: []string{"core.generate_ms", "core.freeze_ms", "core.figures_ms", "core.render_ms", "telemetry.freeze_ms", "runtime.num_gc"},
			zero: []string{"wire.decode_ms_per_batch", "live.admit_ms_per_batch", "live.cut_ms", "wal.append_ms_per_batch",
				"obs.sample_ms", "nethttp.respond_ms", "client.ack_p95_ms"},
		},
	}
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			r := newRun(context.Background(), options{workload: w.Name, seed: 7, seconds: quickSeconds, trace: true, quick: true})
			r.scratch = t.TempDir()
			if err := w.run(r); err != nil {
				t.Fatal(err)
			}
			if r.failed != 0 || r.attempted == 0 {
				t.Errorf("attempted %d, failed %d: %v", r.attempted, r.failed, r.problems)
			}
			for _, d := range endToEnd {
				if m, ok := r.metrics[d.Name]; !ok || m.Value <= 0 || m.Samples == 0 {
					t.Errorf("end-to-end metric %s = %+v (set: %v)", d.Name, m, ok)
				}
			}
			for _, name := range perWorkload[w.Name].nonzero {
				if m := r.metrics[name]; m.Value <= 0 || m.Samples == 0 {
					t.Errorf("%s = %+v, want a measurement", name, m)
				}
			}
			for _, name := range perWorkload[w.Name].zero {
				if m := r.metrics[name]; m.Value != 0 {
					t.Errorf("%s = %+v on a workload that bypasses it", name, m)
				}
			}
			for name := range r.metrics {
				if _, ok := units[name]; !ok {
					t.Errorf("metric %s is not in the catalogue", name)
				}
			}
			if w.Name == "ingest_wal" && r.metrics["wal.append_ms_per_batch"].Value <= r.metrics["wire.decode_ms_per_batch"].Value {
				t.Errorf("ingest_wal spends %v ms in wal.append and %v ms in wire.decode per batch; it exists to load the WAL",
					r.metrics["wal.append_ms_per_batch"].Value, r.metrics["wire.decode_ms_per_batch"].Value)
			}
			if len(r.spans) == 0 {
				t.Error("a traced run recorded no spans")
			}
		})
	}
}

// The command's last line is the contract's JSON object, carrying
// exactly the metrics of the kind of run, and the result file records
// where and how it was measured.
func TestCommandOutputAndResultFile(t *testing.T) {
	for _, c := range []struct {
		trace string
		defs  []metricDef
	}{{"0", endToEnd}, {"1", perLayer}} {
		out := t.TempDir()
		var stdout, stderr bytes.Buffer
		args := []string{"--workload", "study_offline", "--seed", "7", "--seconds", "1", "--trace", c.trace, "-quick", "-out", out}
		if code := realMain(context.Background(), args, &stdout, &stderr); code != 0 {
			t.Fatalf("exit %d: %s", code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var last struct {
			Correct   *bool                     `json:"correct"`
			Attempted *int64                    `json:"attempted"`
			Failed    *int64                    `json:"failed"`
			Metrics   map[string]map[string]any `json:"metrics"`
		}
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&last); err != nil {
			t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
		}
		if last.Correct == nil || !*last.Correct || last.Attempted == nil || *last.Attempted < 1 || last.Failed == nil || *last.Failed != 0 {
			t.Errorf("last line %s", lines[len(lines)-1])
		}
		if len(last.Metrics) != len(c.defs) {
			t.Errorf("trace %s: %d metrics on the last line, want %d", c.trace, len(last.Metrics), len(c.defs))
		}
		for _, d := range c.defs {
			m := last.Metrics[d.Name]
			if len(m) != 2 || m["unit"] != d.Unit {
				t.Errorf("trace %s: metric %s = %v, want a value and unit %q", c.trace, d.Name, m, d.Unit)
			}
			if !strings.Contains(stdout.String(), "  "+d.Name+" ") {
				t.Errorf("trace %s: %s is not in the printed table", c.trace, d.Name)
			}
		}

		b, err := os.ReadFile(filepath.Join(out, "study_offline-seed7-trace"+c.trace+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var res result
		if err := json.Unmarshal(b, &res); err != nil {
			t.Fatal(err)
		}
		if res.Workload != "study_offline" || res.Seed != 7 || res.Env.GoVersion == "" || res.Env.NumCPU == 0 ||
			res.Env.GOMAXPROCS == 0 || res.Env.Commit == "" || res.Env.CPU == "" || res.Metrics["setup_s"].Samples == 0 && c.trace == "0" {
			t.Errorf("result file: %+v", res)
		}
		if _, err := os.Stat(filepath.Join(out, "study_offline-seed7-trace1.spans.jsonl")); (err == nil) != (c.trace == "1") {
			t.Errorf("trace %s: spans file: %v", c.trace, err)
		}
	}
}

func TestBareTrace(t *testing.T) {
	for _, c := range []struct{ in, want []string }{
		{[]string{"-trace"}, []string{"-trace", "1"}},
		{[]string{"-trace", "-quick"}, []string{"-trace", "1", "-quick"}},
		{[]string{"--trace", "0", "-seed", "3"}, []string{"--trace", "0", "-seed", "3"}},
		{[]string{"-seed", "3", "--trace", "1"}, []string{"-seed", "3", "--trace", "1"}},
	} {
		if got := bareTrace(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("bareTrace(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-trace", "2"},
		{"-compare", "only-one"},
		{"stray"},
	} {
		var stdout, stderr bytes.Buffer
		if code := realMain(context.Background(), args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2 (%s)", args, code, stderr.String())
		}
	}
}

// -compare reads two sets of result files and exits non-zero only on a
// regression.
func TestCompareResultSets(t *testing.T) {
	write := func(dir string, seed uint64, opMS float64) {
		res := result{Workload: "ingest_wal", Seed: seed, Correct: true, Attempted: 1, Metrics: map[string]metric{
			"op_p50_ms":      {Value: opMS, Unit: "ms", Samples: 100},
			"refresh_p50_ms": {Value: 500, Unit: "ms", Samples: 4},
		}}
		if err := writeJSON(filepath.Join(dir, "ingest_wal-seed"+string(rune('0'+seed))+"-trace0.json"), &res); err != nil {
			t.Fatal(err)
		}
	}
	a, same, slow := t.TempDir(), t.TempDir(), t.TempDir()
	for seed := uint64(1); seed <= 5; seed++ {
		write(a, seed, 10+float64(seed)/10)
		write(same, seed, 10.1+float64(seed)/10)
		write(slow, seed, 13+float64(seed)/10)
	}
	var stdout, stderr bytes.Buffer
	if code := compareResults(a, same, &stdout, &stderr); code != 0 || !strings.Contains(stdout.String(), " ok ") {
		t.Errorf("same: exit %d\n%s%s", code, stdout.String(), stderr.String())
	}
	stdout.Reset()
	if code := compareResults(a, slow, &stdout, &stderr); code != 1 || !strings.Contains(stdout.String(), "regressed") {
		t.Errorf("slow: exit %d\n%s%s", code, stdout.String(), stderr.String())
	}
	if code := compareResults(a, filepath.Join(a, "missing"), &stdout, &stderr); code != 2 {
		t.Errorf("missing: exit %d", code)
	}
}

// BENCHMARK.json at the repository root and the catalogue in this
// package must name the same workloads and metrics.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	type jsonMetric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	type jsonWorkload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	var file struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []jsonWorkload `json:"workloads"`
		EndToEnd   []jsonMetric   `json:"end_to_end"`
		PerLayer   []jsonMetric   `json:"per_layer"`
	}
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	var wantW []jsonWorkload
	for _, w := range workloads {
		wantW = append(wantW, jsonWorkload{w.Name, w.Why})
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, the contract allows 200", w.Name, len(w.Why))
		}
	}
	var wantE, wantL []jsonMetric
	for _, d := range endToEnd {
		bound := d.Bound
		wantE = append(wantE, jsonMetric{d.Name, d.Unit, d.Better, &bound})
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v is outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, d := range perLayer {
		wantL = append(wantL, jsonMetric{d.Name, d.Unit, d.Better, nil})
	}
	if !reflect.DeepEqual(file.Workloads, wantW) {
		t.Errorf("workloads differ:\n file %+v\n code %+v", file.Workloads, wantW)
	}
	if !reflect.DeepEqual(file.EndToEnd, wantE) {
		t.Errorf("end_to_end differs from the catalogue")
	}
	if !reflect.DeepEqual(file.PerLayer, wantL) {
		t.Errorf("per_layer differs from the catalogue")
	}
	if file.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the command's default is %d", file.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(file.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", file.Paths)
	}
	if t.Failed() {
		want, _ := json.MarshalIndent(map[string]any{
			"command": file.Command, "paths": []string{"bench"}, "run_seconds": defaultSeconds,
			"workloads": wantW, "end_to_end": wantE, "per_layer": wantL,
		}, "", "  ")
		t.Logf("the catalogue as BENCHMARK.json:\n%s", want)
	}
}
