// Command bench is vmpbench: one command that runs four named
// workloads against the real serving plane and the offline study,
// prints every metric by name and unit, checks the answers, and writes
// a JSON result. README.md in this directory has the tables.
//
// Usage, from the root of the repository (run.sh builds this module
// into .bench_build/ and runs it):
//
//	bash bench/run.sh [-workload W] [-seed N] [-seconds S] [-trace 0|1] [-quick] [-out DIR]
//	bash bench/run.sh -compare A B
//
// A run with -trace 0 (the default) reports the end-to-end metrics with
// the bench's spans off; -trace 1 repeats the workload with an
// in-memory span recorder around the calls into each layer and reports
// the per-layer metrics. The last line of standard output is one JSON
// object {"correct", "attempted", "failed", "metrics"} for the (last)
// workload run. The exit code is non-zero if any operation failed or
// any answer was wrong.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"

	"vmp"
)

const (
	defaultSeconds = 20
	quickSeconds   = 1
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	code := realMain(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func realMain(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload to run: "+workloadNames()+"; empty runs all four")
		seed     = fs.Uint64("seed", vmp.DefaultSeed, "seed the inputs are generated from")
		seconds  = fs.Int("seconds", 0, fmt.Sprintf("how long each workload measures; 0 means %d, or %d with -quick", defaultSeconds, quickSeconds))
		trace    = fs.Int("trace", 0, "1 runs with the span recorder on and reports the per-layer metrics; a bare -trace means 1")
		quick    = fs.Bool("quick", false, "a small dataset and a short run, for tests")
		out      = fs.String("out", filepath.Join("bench", "results"), "directory for result files and WAL scratch space")
		compare  = fs.Bool("compare", false, "compare two result files or directories: -compare A B")
	)
	if err := fs.Parse(bareTrace(args)); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare wants two result files or directories")
			return 2
		}
		return compareResults(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || *trace < 0 || *trace > 1 || *seconds < 0 {
		fmt.Fprintln(stderr, "bench: bad arguments; see -h")
		return 2
	}
	opt := options{seed: *seed, seconds: *seconds, trace: *trace == 1, quick: *quick, out: *out}
	if opt.seconds == 0 {
		opt.seconds = defaultSeconds
		if opt.quick {
			opt.seconds = quickSeconds
		}
	}
	var todo []workloadDef
	for _, w := range workloads {
		if *workload == "" || *workload == w.Name {
			todo = append(todo, w)
		}
	}
	if len(todo) == 0 {
		fmt.Fprintf(stderr, "bench: unknown workload %q (want %s)\n", *workload, workloadNames())
		return 2
	}

	env := readEnv()
	code := 0
	for _, w := range todo {
		opt.workload = w.Name
		res, err := runWorkload(ctx, w, opt, env)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.Name, err)
			return 1
		}
		res.print(stdout)
		if !res.Correct {
			code = 1
		}
	}
	return code
}

// bareTrace lets -trace stand alone: the flag takes 0 or 1 (the form
// the benchmark driver passes), so a -trace that is not followed by
// one of those gets a 1.
func bareTrace(args []string) []string {
	var out []string
	for i, a := range args {
		out = append(out, a)
		if a != "-trace" && a != "--trace" {
			continue
		}
		if i+1 == len(args) || (args[i+1] != "0" && args[i+1] != "1") {
			out = append(out, "1")
		}
	}
	return out
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return strings.Join(names, ", ")
}

// environment is where a result was measured.
type environment struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func readEnv() environment {
	env := environment{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		CPU:        "unknown",
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	if wd, err := os.Getwd(); err == nil {
		// The ceiling keeps git from reading above the checkout when
		// the checkout itself is not a repository.
		cmd := exec.Command("git", "rev-parse", "HEAD")
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
		if out, err := cmd.Output(); err == nil {
			env.Commit = strings.TrimSpace(string(out))
		}
	}
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(info), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				env.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return env
}

// result is one workload run as written to the -out directory.
type result struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Seconds   int               `json:"seconds"`
	Trace     bool              `json:"trace"`
	Quick     bool              `json:"quick"`
	Env       environment       `json:"env"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Problems  []string          `json:"problems,omitempty"`
	Notes     []string          `json:"notes,omitempty"`
	Metrics   map[string]metric `json:"metrics"`

	// The wall-clock observations, in order, behind the metrics that
	// are medians over passes, rounds or cuts.
	Series map[string][]float64 `json:"series,omitempty"`

	// The thermometer's reference reading and its readings beside the
	// set-up passes and beside the measured work, in ms.
	RefThermoMS   float64   `json:"ref_thermo_ms"`
	SetupThermoMS []float64 `json:"setup_thermo_ms"`
	RunThermoMS   []float64 `json:"run_thermo_ms"`
}

// defs are the metrics a run of this kind reports.
func (res *result) defs() []metricDef {
	if res.Trace {
		return perLayer
	}
	return endToEnd
}

// runWorkload runs one workload and writes its result file (and, for a
// traced run, its spans) under opt.out.
func runWorkload(ctx context.Context, w workloadDef, opt options, env environment) (*result, error) {
	if err := os.MkdirAll(opt.out, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(opt.out, "scratch-")
	if err != nil {
		return nil, err
	}
	defer func() { _ = os.RemoveAll(scratch) }()

	r := newRun(ctx, opt)
	r.scratch = scratch
	if err := w.run(r); err != nil {
		return nil, err
	}
	res := &result{
		Workload: w.Name, Seed: opt.seed, Seconds: opt.seconds, Trace: opt.trace, Quick: opt.quick, Env: env,
		Correct: r.failed == 0 && r.attempted > 0, Attempted: r.attempted, Failed: r.failed, Problems: r.problems, Notes: r.notes,
		Metrics:     make(map[string]metric),
		Series:      r.series,
		RefThermoMS: refThermoMS, SetupThermoMS: r.setupThermo, RunThermoMS: r.runThermo,
	}
	// The reported set is fixed by the kind of run, not by what the
	// workload happened to touch: a layer it bypasses reads 0. The file
	// of a traced run keeps the end-to-end values the run measured too,
	// so that a layer's time can be set against them.
	for name, m := range r.metrics {
		res.Metrics[name] = m
	}
	for _, d := range res.defs() {
		if _, ok := res.Metrics[d.Name]; !ok {
			res.Metrics[d.Name] = metric{Unit: d.Unit}
		}
	}
	base := filepath.Join(opt.out, fmt.Sprintf("%s-seed%d-trace%d", w.Name, opt.seed, btoi(opt.trace)))
	if err := writeJSON(base+".json", res); err != nil {
		return nil, err
	}
	if opt.trace {
		if err := writeSpans(base+".spans.jsonl", r.spans); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			_ = f.Close()
			return err
		}
	}
	return f.Close()
}

// print writes the human-readable table and then the one-line JSON
// object the benchmark contract asks for as the last line.
func (res *result) print(w io.Writer) {
	kind, defs := "end-to-end (spans off)", res.defs()
	if res.Trace {
		kind = "per-layer (traced run)"
	}
	fmt.Fprintf(w, "\n%s  seed %d  %d s  %s\n", res.Workload, res.Seed, res.Seconds, kind)
	for _, d := range defs {
		m := res.Metrics[d.Name]
		doc := d.Doc
		switch d.Name {
		case "op_p50_ms":
			doc = opDoc[res.Workload]
		case "refresh_p50_ms":
			doc = refreshDoc[res.Workload]
		}
		if m.Wall != 0 {
			doc = fmt.Sprintf("[wall %.4f] %s", m.Wall, doc)
		}
		fmt.Fprintf(w, "  %-34s %16.4f %-10s n=%-6d %s\n", d.Name, m.Value, m.Unit, m.Samples, doc)
	}
	if !res.Trace {
		fmt.Fprintf(w, "  times are at the reference machine speed: the thermometer read %.1f ms beside set-up and %.1f ms beside the run, reference %.1f ms\n",
			median(res.SetupThermoMS), median(res.RunThermoMS), res.RefThermoMS)
	}
	fmt.Fprintf(w, "  attempted %d  failed %d  failed_share %.6f\n", res.Attempted, res.Failed,
		float64(res.Failed)/float64(max(res.Attempted, 1)))
	for _, n := range res.Notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	for _, p := range res.Problems {
		fmt.Fprintf(w, "  PROBLEM: %s\n", p)
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, make(map[string]value, len(defs))}
	for _, d := range defs {
		m := res.Metrics[d.Name]
		line.Metrics[d.Name] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		panic(err) // only floats, strings and bools: cannot fail unless a metric is NaN
	}
	fmt.Fprintf(w, "%s\n", b)
}
