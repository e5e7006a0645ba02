// Command vmptriage runs failure triaging over a view-record dataset
// (JSON lines, as produced by vmpgen or dumped by vmpd -dump),
// localizing the management-plane combinations whose failure rates are
// anomalous.
//
// Usage:
//
//	vmpgen -stride 8 -o views.jsonl
//	vmptriage -in views.jsonl
//	vmptriage -in views.jsonl -inject 'cdn=E:0.4' -inject 'cdn=A,proto=DASH:0.5'
//
// Without -inject, the dataset's own Failed flags are triaged; with
// -inject, synthetic faults are stamped on first (for demos and for
// validating the triager).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"vmp/internal/dist"
	"vmp/internal/telemetry"
	"vmp/internal/triage"
)

type injectList []triage.Fault

func (l *injectList) String() string { return fmt.Sprint(*l) }

// Set parses "cdn=E:0.4" or "cdn=A,proto=DASH,device=Roku:0.5".
func (l *injectList) Set(s string) error {
	spec, probStr, ok := strings.Cut(s, ":")
	if !ok {
		return fmt.Errorf("want <combination>:<probability>, got %q", s)
	}
	prob, err := strconv.ParseFloat(probStr, 64)
	if err != nil {
		return fmt.Errorf("bad probability %q: %v", probStr, err)
	}
	var c triage.Combination
	for _, field := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(field, "=")
		if !ok {
			return fmt.Errorf("bad combination field %q", field)
		}
		switch k {
		case "cdn":
			c.CDN = v
		case "proto":
			c.Protocol = v
		case "device":
			c.Device = v
		default:
			return fmt.Errorf("unknown attribute %q (want cdn, proto, device)", k)
		}
	}
	*l = append(*l, triage.Fault{Match: c, FailProb: prob})
	return nil
}

func main() {
	var faults injectList
	var (
		in         = flag.String("in", "", "JSONL dataset to triage (required)")
		baseRate   = flag.Float64("base", 0.01, "base failure rate when injecting")
		seed       = flag.Uint64("seed", 1, "injection randomness seed")
		minSupport = flag.Int64("min-support", 50, "minimum views per combination")
		minLift    = flag.Float64("min-lift", 3, "failure-rate lift over complement")
	)
	flag.Var(&faults, "inject", "fault to inject, e.g. 'cdn=E:0.4' (repeatable)")
	flag.Parse()

	if *in == "" {
		fatal(fmt.Errorf("-in is required"))
	}
	f, err := os.Open(*in)
	if err != nil {
		fatal(err)
	}
	defer func() { _ = f.Close() }() // read side: a close failure loses nothing
	recs, err := telemetry.DecodeJSONL(f)
	if err != nil {
		fatal(err)
	}
	if len(faults) > 0 {
		inj, err := triage.NewInjector(*baseRate, dist.NewSource(*seed), faults...)
		if err != nil {
			fatal(err)
		}
		failed := inj.Apply(recs)
		fmt.Printf("injected %d faults; %d/%d views failed\n", len(faults), failed, len(recs))
	}

	findings, triager, err := triage.Run(recs, triage.Config{
		MinSupport: *minSupport,
		MinLift:    *minLift,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("aggregated %d combinations over %d views (baseline failure rate %.2f%%)\n",
		triager.CombinationsTracked(), len(recs), 100*triager.BaselineRate())
	if len(findings) == 0 {
		fmt.Println("no anomalous combinations found")
		return
	}
	fmt.Println("root causes:")
	for _, fd := range findings {
		fmt.Printf("  %-48s rate %5.1f%%  lift %6.1fx  (%d/%d views)\n",
			fd.Combination, 100*fd.FailureRate, fd.LiftOverBaseline, fd.Failures, fd.Views)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vmptriage:", err)
	os.Exit(1)
}
