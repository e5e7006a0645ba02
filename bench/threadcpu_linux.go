package main

import (
	"syscall"
	"time"
	"unsafe"
)

// clockThreadCPUTime is CLOCK_THREAD_CPUTIME_ID from <time.h>.
const clockThreadCPUTime = 3

// threadCPU returns the CPU time the calling thread has consumed. The
// caller must have locked its goroutine to the thread. Getrusage with
// RUSAGE_THREAD would need no unsafe, but it is only as fine as the
// scheduler tick, which is half a thermometer unit.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("bench: clock_gettime(CLOCK_THREAD_CPUTIME_ID): " + errno.Error())
	}
	return time.Duration(ts.Nano())
}
