package main

import (
	"runtime"
	"sync"
)

// The machine this benchmark runs on is a small VM on a shared host.
// Its processors slow down by 10–35 % for minutes at a time whatever
// the program under test does — a neighbour on the sibling hardware
// threads takes execution slots — so two runs of one commit a few
// minutes apart differ by more than any bound worth setting, and no
// statistic over the rounds of one run removes a slow spell that
// outlasts the run. A thermometer is a fixed unit of work timed beside
// the measured work. Every time the benchmark reports is the wall-clock
// time multiplied by refThermoMS over the thermometer's median reading
// during that work: the time the work would have taken had the machine
// run at its reference speed throughout. The result file keeps the
// wall-clock value and the readings beside each calibrated one.
//
// The unit is four independent chains of integer arithmetic, held in
// registers, on thermoLanes goroutines at once (the plane and its load
// generator keep that many processors busy). Independent chains keep
// the processor's execution units as full as compiled Go code does, so
// the unit slows down when a neighbour shares the core. It touches no
// memory, allocates nothing and calls nothing, and it is timed on its
// thread's own CPU clock, which stops while the thread waits for a
// processor: a garbage collection in the background, a kernel thread
// writing a checkpoint back, or the guest's scheduler leaving both
// lanes on one processor lengthen a lane's wall-clock time but not its
// reading. No change to the repository, to the heap or to the garbage
// collector can make it faster or slower: it reads the speed of the
// processors and nothing else.
const (
	thermoLanes = 2
	thermoSteps = 6_000_000

	// refThermoMS is the reading the calibrated times are expressed
	// at, close to what the 2-core Xeon 2.1 GHz VM the benchmark was
	// written on reads in its quiet spells. It is a constant of the
	// benchmark, like the batch sizes: changing it rescales every time
	// metric.
	refThermoMS = 10.0

	// A reading runs warmUnits units it throws away and then
	// keptUnits it keeps, back to back on each lane. A processor that
	// has been idle, as both are between the requests of an open loop,
	// starts slow; the discarded unit brings it up to speed the way
	// sustained work would.
	warmUnits = 1
	keptUnits = 4
)

// thermoUnit is one lane's unit of work.
func thermoUnit() uint64 {
	a, b, c, d := uint64(1), uint64(2), uint64(3), uint64(4)
	for i := 0; i < thermoSteps; i++ {
		a = a*6364136223846793005 + 1442695040888963407
		b ^= b<<13 ^ b>>7
		c += a ^ b
		d = d*2862933555777941757 + 3037000493
		c ^= d >> 11
	}
	return a + b + c + d
}

// readThermometer takes one reading: every lane runs its units at
// once, each on a thread of its own, and the reading is the mean over
// the lanes of the lane's median unit, in ms of that thread's CPU time.
func readThermometer() float64 {
	var (
		wg    sync.WaitGroup
		units [thermoLanes][]float64
		sums  [thermoLanes]uint64
	)
	for g := range units {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			runtime.LockOSThread() // the clock is the thread's: stay on it
			defer runtime.UnlockOSThread()
			for i := 0; i < warmUnits+keptUnits; i++ {
				start := threadCPU()
				sums[g] += thermoUnit()
				if spent := threadCPU() - start; i >= warmUnits {
					units[g] = append(units[g], ms(spent))
				}
			}
		}(g)
	}
	wg.Wait()
	reading := 0.0
	for g := range units {
		if sums[g] != sums[0] { // also keeps the units from being optimized away
			panic("bench: the thermometer's lanes computed different sums")
		}
		reading += median(units[g]) / thermoLanes
	}
	return reading
}

// thermo stops to read the thermometer and files the reading under
// phase.
func (r *run) thermo(phase *[]float64) {
	*phase = append(*phase, readThermometer())
}

// speed returns the factor that turns wall-clock time measured beside
// readings into time at the reference speed.
func speed(readings []float64) float64 {
	if len(readings) == 0 {
		return 1
	}
	return refThermoMS / median(readings)
}
