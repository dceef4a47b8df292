package main

import (
	"fmt"
	"io"
	"sync"
	"testing"

	"gengc/internal/bench"
	"gengc/internal/heap"
)

// workloadRun is the run-wide record of the alloc and barrier reports:
// which loop was measured.
type workloadRun struct {
	Workload string `json:"workload"`
}

// allocCell is one measured configuration of the mutator-count sweep.
type allocCell struct {
	Mutators int     `json:"mutators"`
	Shards   int     `json:"shards"`
	NsPerOp  float64 `json:"ns_per_op"`
	Iters    int     `json:"iterations"`
}

type allocReport = bench.Report[workloadRun, allocCell]

// allocExperiment sweeps the AllocChurn workload over mutator counts
// (1/2/4/8) and shard counts (1 = the old single central lock, and the
// per-class default) and prints the table beside base, the committed
// report from this host. There is no gate: the report is the allocation
// path's perf trajectory.
func allocExperiment(w io.Writer, base *allocReport) (*allocReport, error) {
	mutCounts := []int{1, 2, 4, 8}
	shardCounts := []int{1, heap.NumClasses}
	rep := bench.NewReport[workloadRun, allocCell]("alloc", workloadRun{
		Workload: "heap.AllocChurn: mixed size classes, window=256, FreeBatch recycling",
	})
	baseNs := map[[2]int]float64{}
	if base != nil {
		for _, c := range base.Cells {
			baseNs[[2]int{c.Mutators, c.Shards}] = c.NsPerOp
		}
	}
	fmt.Fprintf(w, "Allocation-path sweep (ns/op, AllocChurn; baseline = the committed report from this host)\n")
	fmt.Fprintf(w, "%-9s %-8s %12s %12s\n", "mutators", "shards", "ns/op", "baseline")
	for _, shards := range shardCounts {
		for _, muts := range mutCounts {
			r := testing.Benchmark(func(b *testing.B) {
				h, err := heap.NewSharded(64<<20, shards)
				if err != nil {
					b.Fatal(err)
				}
				per := b.N/muts + 1
				b.ResetTimer()
				var wg sync.WaitGroup
				errs := make(chan error, muts)
				for id := 0; id < muts; id++ {
					wg.Add(1)
					go func(id int) {
						defer wg.Done()
						if err := h.AllocChurn(id, per); err != nil {
							errs <- err
						}
					}(id)
				}
				wg.Wait()
				close(errs)
				for err := range errs {
					b.Fatal(err)
				}
			})
			ns := float64(r.T.Nanoseconds()) / float64(r.N)
			rep.Cells = append(rep.Cells, allocCell{
				Mutators: muts, Shards: shards, NsPerOp: ns, Iters: r.N,
			})
			fmt.Fprintf(w, "%-9d %-8d %12.1f %s\n", muts, shards, ns, baselineColumn(baseNs[[2]int{muts, shards}]))
		}
	}
	fmt.Fprintln(w)
	return rep, nil
}

// baselineColumn formats a baseline ns/op, blank when the baseline has
// no such cell (a zero map value).
func baselineColumn(ns float64) string {
	if ns == 0 {
		return ""
	}
	return fmt.Sprintf("%12.1f", ns)
}
