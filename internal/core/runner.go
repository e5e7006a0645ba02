package core

import (
	"io"
	"runtime"
	"slices"
	"sync"
)

// RunAll computes every figure on a bounded worker pool, filling the
// study's memo table. Figures share only the immutable frozen dataset,
// so they parallelize freely; results land in the memo exactly as a
// serial run would produce them. workers <= 0 means GOMAXPROCS.
func (s *Study) RunAll(workers int) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Materialize the store and frozen dataset before fanning out so
	// workers start from a fully built, immutable substrate.
	s.Dataset()
	errs := make([]error, len(FigureIDs))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for _, i := range dispatchOrder {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, id string) {
			defer wg.Done()
			defer func() { <-sem }()
			errs[i] = s.Render(io.Discard, id)
		}(i, FigureIDs[i])
	}
	wg.Wait()
	// Report the first failure in presentation order, matching what a
	// serial RenderAll would have surfaced.
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// dispatchOrder is the order RunAll starts the figures in, as indices
// into FigureIDs: Figs 15 and 18 first, then the rest in presentation
// order. They are the two §6 experiments — QoE playback, whose result
// Fig 16 reads too, and the storage experiment — and the two longest
// figures (together about half the serial sum at stride 12); neither
// reads the Dataset. Started last, they would run alone at the end of
// the phase.
var dispatchOrder = func() []int {
	first := []string{"15", "18"}
	order := make([]int, 0, len(FigureIDs))
	for _, id := range first {
		order = append(order, slices.Index(FigureIDs, id))
	}
	for i, id := range FigureIDs {
		if !slices.Contains(first, id) {
			order = append(order, i)
		}
	}
	return order
}()

// RenderAllParallel computes every figure concurrently, then renders
// the full study serially from the memoized results. Output is
// byte-identical to RenderAll: rendering order and formatting are
// unchanged, and every figure value is computed exactly once either
// way.
func (s *Study) RenderAllParallel(w io.Writer, workers int) error {
	if err := s.RunAll(workers); err != nil {
		return err
	}
	return s.RenderAll(w)
}
