package main

import (
	"fmt"
	"io"
	"time"

	"gengc/internal/bench"
)

// serverExperiment runs the server-mode overload sweep and prints one
// row per (rate, admission) cell. The smoke run keeps one underload and
// one overload pair with short windows: the gate still applies in full,
// because the overload contrast shows up within a few hundred
// milliseconds.
func serverExperiment(w io.Writer, opts bench.Options, smoke bool) (*bench.ServerReport, error) {
	so := bench.ServerOptions{Seed: opts.Seed}
	if smoke {
		so.Multipliers, so.Duration = []float64{0.5, 3}, 600*time.Millisecond
	}
	var logf func(string, ...any)
	if opts.Progress != nil {
		logf = func(format string, args ...any) { fmt.Fprintf(opts.Progress, format+"\n", args...) }
	}
	rep, err := bench.RunServer(so, logf)
	if err != nil {
		return nil, err
	}
	rep.BaselineComparison = "none: the gate compares paired legs within this run"

	fmt.Fprintf(w, "Server overload sweep — %s — capacity %.0f req/s (SLO %v, %d workers, heap %d MiB)\n",
		rep.Host.Fingerprint(), rep.Run.CapacityPerSec, time.Duration(rep.Run.SLONs),
		rep.Run.Workers, rep.Run.HeapBytes>>20)
	fmt.Fprintf(w, "%-6s %-10s %-9s %-10s %-8s %-8s %-6s %-12s %-12s %-9s %s\n",
		"mult", "rate/s", "admission", "goodput/s", "offered", "done", "shed",
		"p99", "p99.9", "breaches", "oom")
	for _, c := range rep.Cells {
		fmt.Fprintf(w, "%-6.2g %-10.0f %-9v %-10.0f %-8d %-8d %-6d %-12v %-12v %-9d %d\n",
			c.Multiplier, c.RatePerSec, c.Admission, c.GoodputPerSec,
			c.Offered, c.Completed, c.Shed,
			time.Duration(c.P99Ns).Round(time.Microsecond),
			time.Duration(c.P999Ns).Round(time.Microsecond),
			c.SLOBreaches, c.FailedOOM)
	}
	fmt.Fprintln(w)
	return rep, nil
}
