package gengc

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// allocChurnMutator is an allocation-heavy mutator for the shard stress
// test: it cycles through mixed size classes (each mutator offset so
// concurrent mutators mostly hit different classes, the pattern the
// sharded central lists are built for), keeps a rolling window of live
// objects rooted, and drops the rest as garbage for the concurrent
// cycles to reclaim.
func allocChurnMutator(t *testing.T, rt *Runtime, id, ops int) {
	m := rt.NewMutator()
	defer m.Detach()
	sizes := []int{16, 40, 96, 224, 480, 992}
	const window = 128
	roots := make([]int, window)
	for i := range roots {
		roots[i] = m.PushRoot(Nil)
	}
	for op := 0; op < ops; op++ {
		n, err := m.Alloc(2, sizes[(op+id)%len(sizes)])
		if err != nil {
			t.Errorf("mutator %d: alloc: %v", id, err)
			return
		}
		m.SetRoot(roots[op%window], n)
		if op%64 == 0 {
			// Some structure, so the trace has pointers to chase.
			if x := m.Root(roots[(op/2)%window]); x != Nil {
				m.Write(x, 0, n)
			}
			m.Safepoint()
		}
	}
}

// TestAllocShardStressUnderCycles churns allocations from several
// mutators while partial and full collections run continuously, for
// both the degenerate single central lock and the per-class shards.
// Afterwards it requires Verify (allocator bookkeeping + exact shard
// counter reconciliation + reachability) to pass and the Stats totals
// to agree with the heap's allocation counters. Run under -race by
// `make race`.
func TestAllocShardStressUnderCycles(t *testing.T) {
	ops := 30000
	if testing.Short() {
		ops = 6000
	}
	for _, shards := range []int{1, 0} { // single lock vs per-class default
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			rt, err := NewManual(
				WithMode(GenerationalAging),
				WithHeapBytes(16<<20),
				WithYoungBytes(256<<10),
				WithOldAge(2),
				WithAllocShards(shards),
				WithSelfCheck(true),
			)
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Close()

			// Cycle driver: alternate minor and full collections for
			// the whole run, so refills, flushes and sweep frees hit
			// the shards concurrently from both sides.
			stop := make(chan struct{})
			var driver sync.WaitGroup
			driver.Add(1)
			go func() {
				defer driver.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					rt.Collect(i%3 == 0)
				}
			}()

			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					allocChurnMutator(t, rt, id, ops)
				}(w)
			}
			wg.Wait()
			close(stop)
			driver.Wait()

			if err := rt.Verify(); err != nil {
				t.Fatal(err)
			}
			if err, n := rt.Collector().SelfCheckErr(); err != nil {
				t.Fatalf("%d self-check violations, first: %v", n, err)
			}
			// Stats totals must agree with the allocator's shard
			// counters once everything is quiescent.
			h := rt.Collector().H
			st := h.Census()
			if int64(st.ObjectBytes) != h.AllocatedBytes() {
				t.Errorf("census %d object bytes, counters say %d",
					st.ObjectBytes, h.AllocatedBytes())
			}
			if int64(st.Objects) != h.AllocatedObjects() {
				t.Errorf("census %d objects, counters say %d",
					st.Objects, h.AllocatedObjects())
			}
			if st.Alloc.CachedCells != 0 {
				t.Errorf("%d cells still marked cached after all mutators detached",
					st.Alloc.CachedCells)
			}
			if shards == 0 && st.Alloc.Shards != 13 {
				t.Errorf("default shard count = %d, want one per class (13)", st.Alloc.Shards)
			}
		})
	}
}

// TestExactAccountingRace polls the exact totals — HeapBytes,
// HeapObjects and Snapshot, which add the attached caches' unpublished
// runs to the heap's shard totals — while four mutators allocate small
// and large objects under background collections. The polled values
// must never go negative, must be exact against a color census once the
// collector stops (with every cache still holding open runs), and must
// equal the heap counters after Verify publishes the caches. Run under
// -race by `make race`.
func TestExactAccountingRace(t *testing.T) {
	rt, err := New(WithMode(Generational), WithHeapBytes(16<<20),
		WithYoungBytes(256<<10))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	const workers = 4
	muts := make([]*Mutator, workers)
	for i := range muts {
		muts[i] = rt.NewMutator()
	}
	stop := make(chan struct{})
	polled := make(chan int)
	go func() {
		n := 0
		defer func() { polled <- n }()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := rt.Snapshot()
			if b, o := rt.HeapBytes(), rt.HeapObjects(); b < 0 || o < 0 ||
				s.HeapBytes < 0 || s.HeapObjects < 0 {
				t.Errorf("negative total: bytes %d objects %d, snapshot %d/%d",
					b, o, s.HeapBytes, s.HeapObjects)
				return
			}
			n++
			runtime.Gosched()
		}
	}()
	// A mutator that finished its allocations stays attached (its
	// cache keeps its open runs) and keeps answering handshakes until
	// the collector has stopped.
	var allocating, attached sync.WaitGroup
	stopped := make(chan struct{})
	for i, m := range muts {
		allocating.Add(1)
		attached.Add(1)
		go func(id int, m *Mutator) {
			defer attached.Done()
			sizes := []int{16, 40, 96, 224, 480, 992, 3000}
			root := m.PushRoot(Nil)
			for op := 0; op < 10000; op++ {
				x, err := m.Alloc(1, sizes[(op+id)%len(sizes)])
				if err != nil {
					t.Errorf("mutator %d: alloc: %v", id, err)
					break
				}
				if op%8 == 0 {
					m.SetRoot(root, x)
				}
				m.Safepoint()
			}
			allocating.Done()
			for {
				select {
				case <-stopped:
					return
				default:
					m.Safepoint()
					time.Sleep(50 * time.Microsecond)
				}
			}
		}(i, m)
	}
	allocating.Wait()
	close(stop)
	if n := <-polled; n == 0 {
		t.Error("the poller never read the totals")
	}
	// Stopped collector, attached mutators: no publication happens
	// from here until Verify, so the census is the exact reference.
	rt.Close()
	close(stopped)
	attached.Wait()
	h := rt.Collector().H
	census := h.Census()
	if got := rt.HeapBytes(); got != int64(census.ObjectBytes) {
		t.Errorf("HeapBytes = %d, census %d", got, census.ObjectBytes)
	}
	if got := rt.HeapObjects(); got != int64(census.Objects) {
		t.Errorf("HeapObjects = %d, census %d", got, census.Objects)
	}
	if err := rt.Verify(); err != nil {
		t.Fatal(err)
	}
	s := rt.Snapshot()
	if s.HeapBytes != h.AllocatedBytes() || rt.HeapBytes() != h.AllocatedBytes() {
		t.Errorf("after Verify: HeapBytes %d, snapshot %d, heap counters %d",
			rt.HeapBytes(), s.HeapBytes, h.AllocatedBytes())
	}
	if s.HeapObjects != h.AllocatedObjects() || rt.HeapObjects() != h.AllocatedObjects() {
		t.Errorf("after Verify: HeapObjects %d, snapshot %d, heap counters %d",
			rt.HeapObjects(), s.HeapObjects, h.AllocatedObjects())
	}
	for _, m := range muts {
		m.Detach()
	}
}
