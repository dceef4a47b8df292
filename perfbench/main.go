// Command perfbench is the repository benchmark: one process that
// drives the public gengc API through three workloads — anagram and
// javac (batch, one mutator, fixed operation count per round) and
// server (an open-loop request stream on two request workers) — checks
// every round for correctness, and prints every metric by name and
// unit. README.md explains the workloads, the metrics and how to run
// the traced per-layer run.
//
// Usage:
//
//	perfbench --workload anagram|javac|server --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and the metrics (end-to-end with --trace 0,
// per-layer with --trace 1). A round that fails the correctness gate
// ends the run with exit status 1 and no result.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"gengc/internal/workload"
)

// The batch workloads' fixed operation counts per round: about 0.7 s
// of mutator work each on the reference host.
var batchWorkloads = map[string]batchSpec{
	"anagram": {profile: workload.Anagram(), ops: 3_000_000},
	"javac":   {profile: workload.Javac(), ops: 1_500_000},
}

// minRounds is the fewest measured rounds a run makes, however short
// --seconds is.
const minRounds = 3

type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
}

func main() {
	var (
		o         options
		secs      = flag.Int("seconds", 10, "how long to measure")
		traceFlag = flag.Int("trace", 0, "1 = the traced per-layer run")
	)
	flag.StringVar(&o.workload, "workload", "", "anagram, javac or server")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.Parse()
	o.seconds = time.Duration(*secs) * time.Second
	o.trace = *traceFlag == 1
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}

	// The host Go collector stays off for the whole run, so it cannot
	// pause the measured mutators; rounds call runtime.GC between them,
	// outside every timed window.
	debug.SetGCPercent(-1)

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if o.seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	var (
		rounds []*roundStats
		err    error
	)
	switch o.workload {
	case "anagram", "javac":
		rounds, err = runBatch(o, batchWorkloads[o.workload])
	case "server":
		rounds, err = runServer(o, serverWorkload)
	default:
		return fmt.Errorf("unknown workload %q (want anagram, javac or server)", o.workload)
	}
	if err != nil {
		return err
	}
	rep := newReport(o)
	if o.trace {
		perLayer(rep, rounds)
	} else {
		endToEnd(rep, rounds)
	}
	rep.print(os.Stdout)
	return nil
}

// runRounds calls round until the measuring time is spent (and at least
// minRounds times), collecting the host Go heap between rounds. In the
// traced run rounds alternate untraced and traced, so the tracing
// overhead is measured on the same host state.
func runRounds(o options, round func(i int, traced bool) (*roundStats, error)) ([]*roundStats, error) {
	var out []*roundStats
	deadline := time.Now().Add(o.seconds)
	var last time.Duration
	for i := 0; ; i++ {
		left := time.Until(deadline)
		if i >= minRounds && (left <= 0 || left < last/2) && (!o.trace || i%2 == 0) {
			return out, nil
		}
		runtime.GC()
		t := time.Now()
		rs, err := round(i, o.trace && i%2 == 1)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", i, err)
		}
		last = time.Since(t)
		out = append(out, rs)
	}
}
