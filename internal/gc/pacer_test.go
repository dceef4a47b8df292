package gc

import (
	"testing"

	"gengc/internal/heap"
)

// paceSizes mixes several small classes with a large object, so the
// publications come from refills and large allocations alike.
var paceSizes = []int{16, 40, 96, 480, 992, 3000}

// openRunBound bounds the requested bytes a cache can hold back from
// the pacer: one open run — at most a block — per size class.
const openRunBound = int64(heap.NumClasses * heap.BlockSize)

// TestPacerPartialWithinOnePublication: the pacer sees allocation only
// at publications, so the young count trails the true requested bytes
// by at most the open runs, and the partial is requested at the first
// publication at or past YoungBytes — no later than one publication
// after the true young allocation crosses it.
func TestPacerPartialWithinOnePublication(t *testing.T) {
	c, err := New(Config{Mode: Generational, HeapBytes: 8 << 20, YoungBytes: 256 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	p := c.Pacer()
	m := c.NewMutator()
	defer m.Detach()
	var requested int64
	crossed := false
	pubsSinceCross := 0
	for i := 0; !c.pending.Load(); i++ {
		before := p.YoungAlloc()
		size := paceSizes[i%len(paceSizes)]
		mustAlloc(t, m, 1, size)
		requested += int64(size)
		young := p.YoungAlloc()
		if lag := requested - young; lag < 0 || lag > openRunBound {
			t.Fatalf("pacer young %d trails requested %d by %d (bound %d)",
				young, requested, lag, openRunBound)
		}
		if young >= int64(c.cfg.YoungBytes) && !c.pending.Load() {
			t.Fatalf("publication reached young %d >= %d without a request",
				young, c.cfg.YoungBytes)
		}
		if crossed && young != before {
			pubsSinceCross++
		}
		crossed = crossed || requested >= int64(c.cfg.YoungBytes)
		if pubsSinceCross > 1 && !c.pending.Load() {
			t.Fatalf("no request %d publications after young allocation crossed YoungBytes",
				pubsSinceCross)
		}
	}
	if c.wantFull.Load() {
		t.Error("the young trigger requested a full collection")
	}
}

// TestPacerEmergencyWithinOnePublication: the emergency trigger
// compares the heap's allocated total at the last cycle end (less the
// young bytes then counted) plus the requested bytes published since
// against FullThreshold·heap at every publication, so it fires at the
// first publication at or past the bound, never before, and no later
// than one publication after the true figure crosses it.
func TestPacerEmergencyWithinOnePublication(t *testing.T) {
	// YoungBytes spans the whole heap, so only the emergency bound can
	// request anything.
	c, err := New(Config{Mode: Generational, HeapBytes: 8 << 20, YoungBytes: 8 << 20,
		FullThreshold: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	emergency := int64(float64(c.H.SizeBytes) * c.cfg.FullThreshold)
	p := c.Pacer()
	m := c.NewMutator()
	defer m.Detach()
	// Some survivors and one partial, so the baseline is not zero.
	for i := 0; i < 64; i++ {
		m.PushRoot(mustAlloc(t, m, 1, 1000))
	}
	m.Collect(false)
	if c.wantFull.Load() {
		t.Fatal("full requested before the test allocated anything")
	}
	base := c.H.AllocatedBytes() - p.YoungAlloc()
	if base <= 0 {
		t.Fatalf("baseline %d after a partial with survivors", base)
	}
	var requested int64
	crossed := false
	pubsSinceCross := 0
	for i := 0; !c.wantFull.Load(); i++ {
		before := p.YoungAlloc()
		size := paceSizes[i%len(paceSizes)]
		mustAlloc(t, m, 1, size)
		requested += int64(size)
		seen := base + p.YoungAlloc()
		if seen >= emergency && !c.wantFull.Load() {
			t.Fatalf("publication reached %d >= emergency %d without a full request",
				seen, emergency)
		}
		if seen < emergency && c.wantFull.Load() {
			t.Fatalf("full requested at %d, below the emergency bound %d", seen, emergency)
		}
		if crossed && p.YoungAlloc() != before {
			pubsSinceCross++
		}
		crossed = crossed || base+requested >= emergency
		if pubsSinceCross > 1 && !c.wantFull.Load() {
			t.Fatalf("no full request %d publications after the heap crossed the emergency bound",
				pubsSinceCross)
		}
	}
}
