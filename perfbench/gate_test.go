package main

import (
	"math"
	"strings"
	"testing"
	"time"

	"gengc"
	"gengc/internal/workload"
)

// The correctness gate must pass a clean round and fail one whose
// shadow or heap was broken on purpose.

func testBatchRound(t *testing.T, hooks roundHooks) error {
	t.Helper()
	spec := batchSpec{profile: workload.Javac(), ops: 40_000}
	_, err := runBatchRound(spec, 7, make([]float64, 0, spec.ops/opBatch+1), nil, nil, hooks)
	return err
}

func TestBatchGatePassesCleanRound(t *testing.T) {
	if err := testBatchRound(t, roundHooks{}); err != nil {
		t.Fatalf("clean round failed the gate: %v", err)
	}
}

func TestBatchGateCatchesBrokenShadow(t *testing.T) {
	for name, corrupt := range map[string]func(r *batchRunner){
		// The shadow forgets a store the heap still holds.
		"shadow": func(r *batchRunner) { r.sh.baseSlots[5*r.p.BaseSlots+1] = r.base[9] },
		// The heap gains a store the shadow never saw.
		"heap": func(r *batchRunner) { r.m.Write(r.base[7], 2, r.base[3]) },
		// A rooted nursery head loses its root.
		"root": func(r *batchRunner) { r.m.SetRoot(r.nursery[0], gengc.Nil) },
	} {
		t.Run(name, func(t *testing.T) {
			err := testBatchRound(t, roundHooks{corrupt: corrupt})
			if err == nil || !strings.Contains(err.Error(), "shape check") {
				t.Fatalf("gate did not catch the broken %s: %v", name, err)
			}
		})
	}
}

func testServerRound(t *testing.T, hooks serverHooks) (*serverRound, error) {
	t.Helper()
	spec := serverWorkload
	spec.rate, spec.window = 1000, 400*time.Millisecond
	return runServerRound(spec, 3, nil, nil, hooks)
}

func TestServerGatePassesCleanRound(t *testing.T) {
	r, err := testServerRound(t, serverHooks{})
	if err != nil {
		t.Fatalf("clean round failed the gate: %v", err)
	}
	// The shape walk needs rooted graphs to check; how many requests
	// meet their deadline is a measurement, not a correctness property.
	n := 0
	for _, q := range r.reqs {
		if q.outcome == served {
			n++
		}
	}
	if n < 2*serverWorkload.ring {
		t.Fatalf("only %d of %d requests served; the session rings were not filled", n, len(r.reqs))
	}
}

func TestServerGateCatchesCutGraph(t *testing.T) {
	_, err := testServerRound(t, serverHooks{corrupt: func(w *serverWorker) {
		if len(w.heads) > 0 {
			w.m.Write(w.heads[0], 0, gengc.Nil)
		}
	}})
	if err == nil || !strings.Contains(err.Error(), "nodes, want 96") {
		t.Fatalf("gate did not catch the cut graph: %v", err)
	}
}

func TestQuantilesCountMissingAndSamplesBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	q := quantiles(append([]float64(nil), xs...), 0.5, 0.99, 0.999)
	if q[0].Value != 500 || q[1].Value != 990 || !q[1].OK || q[2].OK {
		t.Fatalf("quantiles = %+v", q)
	}
	for i := 0; i < 20; i++ {
		xs[i] = missing
	}
	if q := quantiles(xs, 0.99)[0]; !math.IsInf(q.Value, 1) {
		t.Fatalf("p99 with 2%% missing = %v, want +Inf", q.Value)
	}
}
