package main

import (
	"syscall"
	"time"
	"unsafe"
)

// The gated cost metric, cpu_ms_per_op, counts CPU time rather than wall
// time. On a shared host the wall clock also counts the time other tenants
// hold the cores (steal time), while the CPU time the kernel charges a
// task leaves it out where the guest kernel accounts for steal
// (CONFIG_PARAVIRT_TIME_ACCOUNTING). Wall latencies are still printed
// beside it.
//
// The clocks are read with clock_gettime, which brings the calling
// thread's own runtime up to date; getrusage reports it only as of the
// last scheduler tick, a few milliseconds stale.

const (
	clockProcessCPU = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPU  = 3 // CLOCK_THREAD_CPUTIME_ID
)

func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// processCPU is the CPU time, user and system, of every thread of the
// process so far.
func processCPU() time.Duration { return cpuClock(clockProcessCPU) }

// threadCPU is the CPU time of the calling OS thread so far; the caller
// must hold its goroutine on the thread with runtime.LockOSThread.
func threadCPU() time.Duration { return cpuClock(clockThreadCPU) }
