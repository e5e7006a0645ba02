//go:build !linux

package main

import (
	"time"

	"vmp/internal/simclock"
)

var wallEpoch = simclock.Wall().Now()

// threadCPU falls back to the wall clock where the thread's CPU clock
// is not within reach of the standard library: the thermometer then
// also reads whatever shares the processors with it.
func threadCPU() time.Duration {
	return simclock.Wall().Now().Sub(wallEpoch)
}
