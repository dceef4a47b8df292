package main

import (
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"gengc"
	"gengc/internal/bench"
	"gengc/internal/workload"
)

// barrierCell is one measured configuration of the barrier sweep.
type barrierCell struct {
	Mutators int     `json:"mutators"`
	Barrier  string  `json:"barrier"`
	API      string  `json:"api"`
	NsPerOp  float64 `json:"ns_per_op"`
	Iters    int     `json:"iterations"`
}

type barrierReport = bench.Report[workloadRun, barrierCell]

// barrierMutCounts is the mutator sweep of the barrier experiment.
var barrierMutCounts = []int{1, 2, 4, 8}

// runBarrierChurn measures one (mutators, barrier, api) churn
// configuration and returns the benchmark result. One op = one
// allocation + Fanout(8) barriered pointer stores + one safe point.
func runBarrierChurn(muts int, barrier gengc.BarrierMode, useBatch bool) testing.BenchmarkResult {
	churn := workload.BarrierChurn{UseWriteBatch: useBatch}
	return testing.Benchmark(func(b *testing.B) {
		rt, err := gengc.New(
			gengc.WithMode(gengc.Generational),
			gengc.WithHeapBytes(64<<20),
			gengc.WithYoungBytes(2<<20),
			gengc.WithBarrier(barrier),
			gengc.WithPauseHistograms(false),
		)
		if err != nil {
			b.Fatal(err)
		}
		defer rt.Close()
		per := b.N/muts + 1
		b.ResetTimer()
		var wg sync.WaitGroup
		errs := make(chan error, muts)
		for id := 0; id < muts; id++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				m := rt.NewMutator()
				defer m.Detach()
				if err := churn.RunThread(m, per); err != nil {
					errs <- err
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			b.Fatal(err)
		}
	})
}

// barrierExperiment sweeps the pointer-write-heavy churn workload over
// mutator counts for each barrier mode and write API, prints the table
// beside base (the committed report from this host, or nil), and gates
// the result with barrierGate.
func barrierExperiment(w io.Writer, base *barrierReport) (*barrierReport, error) {
	// The host runtime's own collector would inject pauses into the
	// measurement (workload.Run does the same for the profile runs).
	prevGC := debug.SetGCPercent(-1)
	defer func() {
		debug.SetGCPercent(prevGC)
		runtime.GC()
	}()

	rep := bench.NewReport[workloadRun, barrierCell]("barrier", workloadRun{
		Workload: "workload.BarrierChurn: 1 alloc + 8 pointer stores into an old base object " +
			"+ 1 safepoint per op, generational mode, 64MB heap, 2MB young",
	})
	var baseCells []barrierCell
	if base != nil {
		baseCells = base.Cells
	}
	baseEager := eagerLoopNs(baseCells)
	configs := []struct {
		barrier  gengc.BarrierMode
		useBatch bool
	}{
		{gengc.BarrierEager, false},
		{gengc.BarrierEager, true},
		{gengc.BarrierBatched, false},
		{gengc.BarrierBatched, true},
	}
	fmt.Fprintf(w, "Write-barrier sweep (ns/op, BarrierChurn; baseline = the committed eager Write loop from this host)\n")
	fmt.Fprintf(w, "%-9s %-9s %-6s %12s %12s\n", "mutators", "barrier", "api", "ns/op", "baseline")
	for _, muts := range barrierMutCounts {
		for _, cfg := range configs {
			api := "loop"
			if cfg.useBatch {
				api = "batch"
			}
			r := runBarrierChurn(muts, cfg.barrier, cfg.useBatch)
			ns := float64(r.T.Nanoseconds()) / float64(r.N)
			rep.Cells = append(rep.Cells, barrierCell{
				Mutators: muts, Barrier: cfg.barrier.String(), API: api,
				NsPerOp: ns, Iters: r.N,
			})
			col := ""
			if cfg.barrier == gengc.BarrierEager && !cfg.useBatch {
				col = baselineColumn(baseEager[muts])
			}
			fmt.Fprintf(w, "%-9d %-9s %-6s %12.1f %s\n", muts, cfg.barrier, api, ns, col)
		}
	}
	fmt.Fprintln(w)
	rep.Regressions = barrierGate(rep.Cells, baseCells)
	return rep, nil
}

// eagerLoopNs maps mutator count to the eager Write loop's ns/op.
func eagerLoopNs(cells []barrierCell) map[int]float64 {
	m := map[int]float64{}
	for _, c := range cells {
		if c.Barrier == "eager" && c.API == "loop" {
			m[c.Mutators] = c.NsPerOp
		}
	}
	return m
}

// barrierGate flags configurations where the batched redesign lost
// ground: the batched Write loop more than 5% slower than the eager one
// at the same mutator count in the same run (host speed cancels), or
// the eager loop more than 10% slower than in base, the committed
// report from a host with the same fingerprint (the eager path is
// supposed to stay untouched; the margin is wider because the baseline
// is from an earlier process). base is nil when there is no such
// report; then only the same-run check applies.
func barrierGate(cells, base []barrierCell) []string {
	var bad []string
	eager, baseEager := eagerLoopNs(cells), eagerLoopNs(base)
	for _, c := range cells {
		if c.API != "loop" {
			continue
		}
		if e, ok := eager[c.Mutators]; ok && c.Barrier == "batched" && c.NsPerOp > e*1.05 {
			bad = append(bad, fmt.Sprintf(
				"batched/loop at %d mutators: %.1f ns/op vs eager %.1f (+%.1f%%)",
				c.Mutators, c.NsPerOp, e, (c.NsPerOp/e-1)*100))
		}
		if b, ok := baseEager[c.Mutators]; ok && c.Barrier == "eager" && c.NsPerOp > b*1.10 {
			bad = append(bad, fmt.Sprintf(
				"eager/loop at %d mutators: %.1f ns/op vs baseline %.1f (+%.1f%%)",
				c.Mutators, c.NsPerOp, b, (c.NsPerOp/b-1)*100))
		}
	}
	return bad
}
