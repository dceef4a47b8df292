package main

import (
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

// rusageThread is Linux's RUSAGE_THREAD, which package syscall does not
// name: the CPU time of the calling OS thread only.
const rusageThread = 1

// cpuTime returns user+system CPU time for who (syscall.RUSAGE_SELF for
// the whole process, rusageThread for the calling thread). The caller
// of a thread reading must hold runtime.LockOSThread across both reads.
func cpuTime(who int) (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0, fmt.Errorf("getrusage(%d): %w", who, err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// cpuSpan accumulates the CPU a thread or the process used between
// start and stop.
type cpuSpan struct {
	who   int
	begin time.Duration
	used  time.Duration
	err   error
}

func (c *cpuSpan) start(who int) {
	c.who = who
	c.begin, c.err = cpuTime(who)
}

func (c *cpuSpan) stop() {
	end, err := cpuTime(c.who)
	if c.err == nil {
		c.err = err
	}
	c.used = end - c.begin
}

// clockThreadCPUTime is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTime = 3

// threadCPUNs returns the calling thread's CPU time in nanoseconds. The
// thread figure of getrusage advances only at scheduler ticks; this
// clock is exact, so it can time one op batch.
func threadCPUNs() (int64, error) {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0, fmt.Errorf("clock_gettime(CLOCK_THREAD_CPUTIME_ID): %w", e)
	}
	return ts.Nano(), nil
}

// threadSwitches returns how often the calling thread has left its CPU
// in the kernel's view: voluntary plus involuntary context switches.
func threadSwitches() (int64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		return 0, fmt.Errorf("getrusage(RUSAGE_THREAD): %w", err)
	}
	return ru.Nvcsw + ru.Nivcsw, nil
}

// stealMeter removes hypervisor CPU steal from a pinned thread's
// elapsed time. When the host deschedules a virtual CPU, the guest
// thread on it stays "running": wall time advances, its CPU clock does
// not, and no context switch is counted. So in an interval with no
// context switch, wall minus thread CPU is time the host took. An
// interval with a switch keeps its whole wall time: the thread blocked
// in the program or was preempted by another thread of the process,
// and both are costs the program imposes. The caller must hold
// runtime.LockOSThread from start to the last lap.
type stealMeter struct {
	cpu, switches int64 // at the last start or lap
	stolen        int64 // Σ wall − CPU over laps with no context switch
	err           error
}

func (s *stealMeter) start() {
	s.stolen = 0
	s.cpu, s.err = threadCPUNs()
	if s.err == nil {
		s.switches, s.err = threadSwitches()
	}
}

// lap closes an interval that took wall ns and returns its elapsed time
// without steal.
func (s *stealMeter) lap(wall int64) int64 {
	cpu, err := threadCPUNs()
	sw, err2 := threadSwitches()
	if s.err == nil {
		s.err = err
		if s.err == nil {
			s.err = err2
		}
	}
	used, same := cpu-s.cpu, sw == s.switches
	s.cpu, s.switches = cpu, sw
	if same && wall > used {
		s.stolen += wall - used
		return used
	}
	return wall
}

// prSetTimerSlack is Linux's PR_SET_TIMERSLACK prctl option.
const prSetTimerSlack = 29

// fineTimerSlack sets the calling thread's timer slack to 1 ns, so its
// nanosleep calls wake within microseconds of their target. The caller
// must hold runtime.LockOSThread.
func fineTimerSlack() error {
	if _, _, e := syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0); e != 0 {
		return fmt.Errorf("prctl(PR_SET_TIMERSLACK): %w", e)
	}
	return nil
}

// sleepPrecise blocks the calling OS thread for ns nanoseconds.
func sleepPrecise(ns int64) {
	ts := syscall.NsecToTimespec(ns)
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
