package gc

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"gengc/internal/heap"
)

func TestBarrierModeValidation(t *testing.T) {
	if _, err := New(Config{Mode: Generational, HeapBytes: 4 << 20, Barrier: BarrierMode(7)}); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("out-of-range barrier mode: err = %v, want ErrInvalidConfig", err)
	}
	if _, err := New(Config{Mode: Generational, HeapBytes: 4 << 20, Barrier: BarrierMode(-1)}); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("negative barrier mode: err = %v, want ErrInvalidConfig", err)
	}
	if _, err := New(Config{Mode: NonGenerational, HeapBytes: 4 << 20,
		Barrier: BarrierBatched, DisableColorToggle: true}); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("batched + toggle-free: err = %v, want ErrInvalidConfig", err)
	}
	c, err := New(Config{Mode: Generational, HeapBytes: 4 << 20, Barrier: BarrierBatched})
	if err != nil {
		t.Fatalf("batched barrier rejected: %v", err)
	}
	if c.BarrierStats().Mode != BarrierBatched {
		t.Errorf("BarrierStats().Mode = %v, want batched", c.BarrierStats().Mode)
	}
}

func TestBarrierModeString(t *testing.T) {
	if BarrierEager.String() != "eager" || BarrierBatched.String() != "batched" {
		t.Fatalf("mode strings = %q/%q", BarrierEager, BarrierBatched)
	}
	if BarrierMode(9).String() != "invalid" {
		t.Fatalf("out-of-range string = %q", BarrierMode(9))
	}
}

// churnSeeded drives one mutator through a deterministic seeded mix of
// allocations, barriered stores and root drops, with partial and full
// collections at fixed operation indices. Liveness at every point is a
// pure function of the seed, so two runs differing only in barrier
// mode must end with the identical live set.
func churnSeeded(t *testing.T, c *Collector, seed int64, ops int) *Mutator {
	t.Helper()
	m := c.NewMutator()
	rng := rand.New(rand.NewSource(seed))
	live := 0
	for op := 0; op < ops; op++ {
		switch r := rng.Float64(); {
		case r < 0.55 || live == 0:
			ref := mustAlloc(t, m, 3, 16+rng.Intn(48))
			m.PushRoot(ref)
			live++
		case r < 0.75 && live >= 2:
			a := m.Root(rng.Intn(live))
			b := m.Root(rng.Intn(live))
			m.Update(a, rng.Intn(3), b)
		case r < 0.85 && live >= 2:
			// The bulk-store API, on a dense prefix of a rooted object.
			x := m.Root(rng.Intn(live))
			vals := []heap.Addr{m.Root(rng.Intn(live)), m.Root(rng.Intn(live))}
			m.UpdateBatch(x, vals)
		default:
			drop := 1 + rng.Intn(min(live, 4))
			m.PopRoots(drop)
			live -= drop
		}
		m.Cooperate()
		if op%97 == 96 {
			m.Collect(false)
		}
		if op%403 == 402 {
			m.Collect(true)
		}
	}
	return m
}

// graphSignature walks the heap graph reachable from m's roots in
// deterministic order and returns an address-independent signature:
// each object is named by its discovery index, and every slot records
// the discovery index of its target (or -1). Two heaps have the same
// signature iff the reachable graphs are isomorphic under discovery
// order — addresses may differ between runs, structure may not.
func graphSignature(c *Collector, m *Mutator) string {
	index := map[heap.Addr]int{}
	var sig []byte
	var visit func(x heap.Addr)
	visit = func(x heap.Addr) {
		if x == 0 {
			return
		}
		if _, ok := index[x]; ok {
			return
		}
		index[x] = len(index)
		slots := c.H.Slots(x)
		sig = append(sig, []byte(fmt.Sprintf("o%d:%d[", index[x], slots))...)
		targets := make([]heap.Addr, slots)
		for i := 0; i < slots; i++ {
			targets[i] = c.H.LoadSlot(x, i)
		}
		for _, tgt := range targets {
			visit(tgt)
			ti := -1
			if tgt != 0 {
				ti = index[tgt]
			}
			sig = append(sig, []byte(fmt.Sprintf("%d,", ti))...)
		}
		sig = append(sig, ']')
	}
	for i := 0; i < m.NumRoots(); i++ {
		visit(m.Root(i))
	}
	return string(sig)
}

// TestBatchedEagerEquivalence: the same seeded workload, run once under
// each barrier mode, must end with the identical live set — object and
// byte counts and graph structure — after a final full collection. This
// is the semantic-equivalence guarantee of the batched barrier, checked
// per collector mode.
func TestBatchedEagerEquivalence(t *testing.T) {
	for _, mode := range []Mode{NonGenerational, Generational, GenerationalAging} {
		t.Run(mode.String(), func(t *testing.T) {
			type result struct {
				objects, bytes int64
				sig            string
				stats          BarrierStats
			}
			run := func(barrier BarrierMode) result {
				c, err := New(Config{Mode: mode, HeapBytes: 8 << 20,
					YoungBytes: 256 << 10, Barrier: barrier})
				if err != nil {
					t.Fatal(err)
				}
				m := churnSeeded(t, c, 12345, 1500)
				// Two settling fulls: the first may race leftover
				// floating garbage from the last in-workload partial,
				// the second runs on a quiescent heap.
				m.Collect(true)
				m.Collect(true)
				res := result{sig: graphSignature(c, m), stats: c.BarrierStats()}
				res.bytes, res.objects = c.HeapTotals()
				m.Detach()
				c.Stop()
				return res
			}
			eager := run(BarrierEager)
			batched := run(BarrierBatched)
			if eager.objects != batched.objects || eager.bytes != batched.bytes {
				t.Errorf("live set diverged: eager %d objects/%d bytes, batched %d objects/%d bytes",
					eager.objects, eager.bytes, batched.objects, batched.bytes)
			}
			if eager.sig != batched.sig {
				t.Errorf("reachable graph diverged between barrier modes")
			}
			if eager.stats.Flushes != 0 || eager.stats.BufferedStores != 0 {
				t.Errorf("eager run advanced batched counters: %+v", eager.stats)
			}
			// In the generational modes every async store buffers a
			// card entry, so the deferred path must have flushed. In
			// NonGenerational the barrier only buffers during
			// sync/tracing windows, which this workload's stores —
			// made between manual collections — never hit; zero
			// flushes there is the correct (and cheapest) outcome.
			if mode != NonGenerational &&
				(batched.stats.Flushes == 0 || batched.stats.BufferedStores == 0) {
				t.Errorf("batched run never exercised the deferred path: %+v", batched.stats)
			}
		})
	}
}

// TestBatchedChurnRaceStress runs the batched barrier under -race with
// a started collector, parallel trace/sweep workers and several
// concurrent mutators, then audits every invariant. (The name matters:
// `make race` selects Race|Stress|Parallel tests.)
func TestBatchedChurnRaceStress(t *testing.T) {
	c, err := New(Config{Mode: Generational, HeapBytes: 16 << 20,
		YoungBytes: 256 << 10, Workers: 4, Barrier: BarrierBatched,
		SelfCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	const mutators = 4
	var wg sync.WaitGroup
	for id := 0; id < mutators; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			m := c.NewMutator()
			defer m.Detach()
			rng := rand.New(rand.NewSource(int64(id) + 7))
			live := 0
			for op := 0; op < 4000; op++ {
				switch r := rng.Float64(); {
				case r < 0.5 || live == 0:
					ref, err := m.Alloc(2, 16+rng.Intn(64))
					if err != nil {
						t.Errorf("mutator %d: %v", id, err)
						return
					}
					m.PushRoot(ref)
					live++
				case r < 0.8 && live >= 2:
					a := m.Root(rng.Intn(live))
					vals := []heap.Addr{m.Root(rng.Intn(live)), m.Root(rng.Intn(live))}
					if rng.Intn(2) == 0 {
						m.UpdateBatch(a, vals)
					} else {
						m.Update(a, rng.Intn(2), vals[0])
					}
				default:
					drop := 1 + rng.Intn(min(live, 6))
					m.PopRoots(drop)
					live -= drop
				}
				m.Cooperate()
			}
		}(id)
	}
	wg.Wait()
	c.CollectNow(true)
	if err := c.Verify(); err != nil {
		t.Errorf("Verify: %v", err)
	}
	if err := c.VerifyCardInvariant(); err != nil {
		t.Errorf("card invariant: %v", err)
	}
	if err, n := c.SelfCheckErr(); n > 0 {
		t.Errorf("%d self-check violations, first: %v", n, err)
	}
	if c.BarrierStats().Flushes == 0 {
		t.Error("stress run never flushed a barrier buffer")
	}
	c.Stop()
}

// TestUpdateBatchMatchesUpdate: the two write APIs must leave identical
// slot contents and equivalent barrier state for the same stores.
func TestUpdateBatchMatchesUpdate(t *testing.T) {
	for _, barrier := range []BarrierMode{BarrierEager, BarrierBatched} {
		t.Run(barrier.String(), func(t *testing.T) {
			c, err := New(Config{Mode: Generational, HeapBytes: 4 << 20, Barrier: barrier})
			if err != nil {
				t.Fatal(err)
			}
			m := c.NewMutator()
			x := mustAlloc(t, m, 4, 0)
			m.PushRoot(x)
			vals := make([]heap.Addr, 4)
			for i := range vals {
				vals[i] = mustAlloc(t, m, 0, 16)
			}
			m.UpdateBatch(x, vals)
			for i, want := range vals {
				if got := c.H.LoadSlot(x, i); got != want {
					t.Errorf("slot %d = %d, want %d", i, got, want)
				}
			}
			// The deferred card mark publishes at the next safe point
			// with pending work, or at detach; force it and check the
			// card is visible to the collector.
			m.flushBarrier("detach")
			ci := c.Cards.IndexOf(x)
			if !c.Cards.IsDirty(ci) {
				t.Errorf("card %d not dirty after UpdateBatch", ci)
			}
			m.Detach()
			c.Stop()
		})
	}
}
