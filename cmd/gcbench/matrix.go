package main

import (
	"fmt"
	"io"
	"time"

	"gengc/internal/bench"
)

// matrixExperiment runs the contention matrix (bench.MatrixPreset),
// compares its shape against base, the committed report from this host
// (nil when there is none), applies the host-independent sanity checks,
// and prints the cell medians grouped by profile/contention.
func matrixExperiment(w io.Writer, opts bench.Options, smoke bool, base *bench.MatrixReport) (*bench.MatrixReport, error) {
	spec, err := bench.MatrixPreset(smoke)
	if err != nil {
		return nil, err
	}
	spec.Seed = opts.Seed
	if opts.Progress != nil {
		spec.Progress = func(line string) { fmt.Fprintln(opts.Progress, line) }
	}
	start := time.Now()
	rep, err := bench.RunMatrix(spec)
	if err != nil {
		return nil, err
	}
	bench.CompareMatrixBaseline(rep, base)
	bench.MatrixSanity(rep)

	fmt.Fprintf(w, "Contention matrix: %d cells × %d passes, %d ops/run, host %s, %v\n",
		len(rep.Cells), rep.Run.Passes, rep.Run.TotalOps, rep.Host.Fingerprint(),
		time.Since(start).Round(time.Second))
	fmt.Fprintf(w, "%-8s %-6s %4s %3s %3s %-7s %9s %9s %10s %9s %8s %8s %8s\n",
		"profile", "cont", "muts", "w", "sh", "barrier", "ns/op",
		"p99(us)", "p99.9(us)", "cycMax(ms)", "cycles", "contend", "dedup")
	for _, c := range rep.Cells {
		fmt.Fprintf(w, "%-8s %-6s %4d %3d %3d %-7s %9.1f %9.1f %10.1f %9.1f %8d %8d %8d\n",
			c.Profile, c.Contention, c.Mutators, c.Workers, c.Shards, c.Barrier,
			c.NsPerOp,
			float64(c.PauseP99Ns)/1e3, float64(c.PauseP999Ns)/1e3,
			float64(c.CycleMaxNs)/1e6,
			c.Cycles, c.AllocContended, c.CardDedupHits)
	}
	fmt.Fprintln(w)
	return rep, nil
}
