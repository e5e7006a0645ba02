package main

import (
	"fmt"
	"math/rand"
	"runtime"

	"vmp/internal/live"
	"vmp/internal/telemetry"
)

// The probes measure layers the request path does not cross on its
// own, in-process, after the load has stopped. Only traced runs pay
// for them.

const probeRepeats = 5

// layerProbes is what the probes observed.
type layerProbes struct {
	sampleMS, metricsMS []float64
	sortMS, freezeMS    []float64
	queryAllocBytes     []float64
}

// probeLayers times one obs sampling pass and one /metrics render,
// counts the bytes a query allocates, and times CanonicalSort and
// NewDataset on a replica of the last cut's input.
func (r *run) probeLayers(p *plane, c *client, prev, last *live.Generation, out *layerProbes) error {
	for i := 0; i < probeRepeats; i++ {
		start := r.clock.Now()
		p.sampler.Sample()
		out.sampleMS = append(out.sampleMS, ms(r.clock.Now().Sub(start)))

		start = r.clock.Now()
		status, _, err := c.get(r.ctx, "/metrics")
		if err != nil || status != 200 {
			return fmt.Errorf("GET /metrics: status %d: %v", status, err)
		}
		out.metricsMS = append(out.metricsMS, ms(r.clock.Now().Sub(start)))
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < probeRepeats; i++ {
		if _, err := answers(last.Dataset, r.mix); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&after)
	out.queryAllocBytes = append(out.queryAllocBytes,
		float64(after.TotalAlloc-before.TotalAlloc)/float64(probeRepeats*len(r.mix)))

	replica := cutInput(prev.Dataset.All(), last.Dataset.All(), r.opt.seed)
	start := r.clock.Now()
	telemetry.CanonicalSort(replica)
	sorted := r.clock.Now()
	ds := telemetry.NewDataset(replica)
	out.sortMS = append(out.sortMS, ms(sorted.Sub(start)))
	out.freezeMS = append(out.freezeMS, ms(r.clock.Now().Sub(sorted)))
	if ds.Len() != last.Records {
		return fmt.Errorf("cut replica holds %d records, the generation %d", ds.Len(), last.Records)
	}
	return nil
}

// cutInput rebuilds what the engine's last cut had to sort: the
// previous generation's records, already in canonical order, followed
// by the records the cut added, in no particular order. Both
// arguments are canonically sorted and prev is a sub-multiset of last,
// so one merge walk separates the delta; a seeded shuffle stands in
// for its arrival order.
func cutInput(prev, last []telemetry.ViewRecord, seed uint64) []telemetry.ViewRecord {
	out := make([]telemetry.ViewRecord, 0, len(last))
	out = append(out, prev...)
	i := 0
	for j := range last {
		if i < len(prev) && telemetry.CompareRecords(&prev[i], &last[j]) == 0 {
			i++
			continue
		}
		out = append(out, last[j])
	}
	delta := out[len(prev):]
	rng := rand.New(rand.NewSource(int64(seed)))
	rng.Shuffle(len(delta), func(a, b int) { delta[a], delta[b] = delta[b], delta[a] })
	return out
}
