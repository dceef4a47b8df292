package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"gengc"
	"gengc/internal/workload"
)

// The batch workloads replay a workload profile's mutator program —
// the same operation mix as workload.Run — on a runtime the benchmark
// owns, so it can time the calls into each layer, keep a shadow of
// every structure the program roots, and audit the heap after Close.

// batchSpec is one batch workload: the profile it replays and the fixed
// operation count of one round.
type batchSpec struct {
	profile workload.Profile
	ops     int // operations per round (fixed: rounds measure equal work)
}

// opBatch is how many operations share one clock read in the untraced
// run: the unit of opbatch_p50_us/opbatch_p99_us.
const opBatch = 256

// traceEvery makes every traceEvery-th op batch of a traced round a
// fully traced one: each Alloc, Write and Safepoint call in it becomes
// a child span.
const traceEvery = 64

func batchOptions(traced *eventSink) []gengc.Option {
	opts := []gengc.Option{
		gengc.WithMode(gengc.Generational),
		gengc.WithHeapBytes(32 << 20),
		gengc.WithYoungBytes(4 << 20),
	}
	if traced != nil {
		opts = append(opts, gengc.WithTraceSink(traced))
	}
	return opts
}

// batchRunner is the single mutator's state: the profile's runner
// (nursery ring, survivor pool, long-lived base) plus the benchmark's
// timing and shadow bookkeeping.
type batchRunner struct {
	p      workload.Profile
	m      *gengc.Mutator
	rng    *rand.Rand
	cycles *atomic.Int64

	nursery    []int
	nurseryPos int

	survivors    []int
	survivorBorn []int64
	survivorPos  int

	base     []gengc.Ref
	baseRoot int
	oldRing  []oldLoc
	oldPos   int

	last        gengc.Ref
	clusterHead gengc.Ref
	clusterPos  int // nursery position of clusterHead
	clusterSlot int

	sh shadow

	allocs, writes, safepoints, allocBytes, failed int64
	sink                                           uint64

	// tracing: sp is nil in untraced rounds; sampling is set while the
	// current op batch is a fully traced one.
	sp       *spanLog
	sampling bool
	parent   int32

	steal stealMeter // laps once per op batch
}

// oldLoc is one base-structure location holding a young reference:
// the base index and slot (set is false for a ring entry never used).
type oldLoc struct {
	idx, slot int
	set       bool
}

// shadow is the benchmark's own record of what the runner rooted and
// stored, compared against the heap after the run (checkShape).
type shadow struct {
	roots     []gengc.Ref   // expected value of every root slot
	baseSlots []gengc.Ref   // expected slots of base[i] at [i*BaseSlots:]
	kids      [][]gengc.Ref // expected slots of each nursery cluster head
}

func (r *batchRunner) setRoot(i int, v gengc.Ref) {
	r.m.SetRoot(i, v)
	r.sh.roots[i] = v
}

func (r *batchRunner) pushRoot(v gengc.Ref) int {
	i := r.m.PushRoot(v)
	r.sh.roots = append(r.sh.roots, v)
	return i
}

// The three timed layer boundaries. Outside a traced op batch they are
// plain calls behind one predictable branch.

func (r *batchRunner) alloc(slots, size int) (gengc.Ref, error) {
	r.allocBytes += int64(size)
	if !r.sampling {
		return r.m.Alloc(slots, size)
	}
	t := now()
	x, err := r.m.Alloc(slots, size)
	r.sp.add(spanAlloc, r.parent, t, now())
	return x, err
}

func (r *batchRunner) write(x gengc.Ref, i int, y gengc.Ref) {
	r.writes++
	if !r.sampling {
		r.m.Write(x, i, y)
		return
	}
	t := now()
	r.m.Write(x, i, y)
	r.sp.add(spanWrite, r.parent, t, now())
}

func (r *batchRunner) safepoint() {
	r.safepoints++
	if !r.sampling {
		r.m.Safepoint()
		return
	}
	t := now()
	r.m.Safepoint()
	r.sp.add(spanSafepoint, r.parent, t, now())
}

// buildBase constructs the long-lived structure: a chain through slot 0
// of BaseSlots-slot objects, rooted at one root slot.
func (r *batchRunner) buildBase() error {
	count := r.p.BaseBytes / r.p.BaseObjSize
	if count == 0 {
		count = 1
	}
	r.base = make([]gengc.Ref, 0, count)
	r.sh.baseSlots = make([]gengc.Ref, count*r.p.BaseSlots)
	r.baseRoot = r.pushRoot(gengc.Nil)
	var prev gengc.Ref
	for i := 0; i < count; i++ {
		r.m.Safepoint()
		obj, err := r.m.Alloc(r.p.BaseSlots, r.p.BaseObjSize)
		if err != nil {
			return fmt.Errorf("building base object %d: %w", i, err)
		}
		r.m.Write(obj, 0, prev)
		r.sh.baseSlots[i*r.p.BaseSlots] = prev
		r.setRoot(r.baseRoot, obj)
		prev = obj
		r.base = append(r.base, obj)
	}
	return nil
}

func (r *batchRunner) setup() error {
	if err := r.buildBase(); err != nil {
		return err
	}
	r.nursery = make([]int, r.p.NurserySlots)
	r.sh.kids = make([][]gengc.Ref, r.p.NurserySlots)
	for i := range r.nursery {
		r.nursery[i] = r.pushRoot(gengc.Nil)
		r.sh.kids[i] = make([]gengc.Ref, r.p.SlotsMax)
	}
	n := r.p.SurvivorSlots
	if n == 0 {
		n = 64
	}
	r.survivors = make([]int, n)
	r.survivorBorn = make([]int64, n)
	for i := range r.survivors {
		r.survivors[i] = r.pushRoot(gengc.Nil)
	}
	retain := r.p.OldRetain
	if retain == 0 {
		retain = 1024
	}
	r.oldRing = make([]oldLoc, retain)
	return nil
}

// op runs operation number op of the profile's program.
func (r *batchRunner) op(op int) {
	r.safepoint()
	r.compute()
	r.expireSurvivors(op)
	dice := r.rng.Float64()
	switch {
	case dice < r.p.AllocFrac:
		if err := r.allocate(op); err != nil {
			r.failed++
		}
	case dice < r.p.AllocFrac+r.p.OldUpdateFrac:
		r.updateOld()
	default:
		r.chase()
	}
}

func (r *batchRunner) compute() {
	s := r.sink
	for i := 0; i < r.p.WorkPerOp; i++ {
		s = s*6364136223846793005 + 1442695040888963407
	}
	r.sink = s
}

func (r *batchRunner) allocate(op int) error {
	size := r.p.MeanSize
	if r.p.SizeJitter > 0 {
		size += r.rng.Intn(2*r.p.SizeJitter) - r.p.SizeJitter
	}
	slots := 0
	if r.p.SlotsMax > 0 {
		slots = r.rng.Intn(r.p.SlotsMax + 1)
	}
	if r.p.LargeEvery > 0 && op%r.p.LargeEvery == r.p.LargeEvery-1 {
		size = r.p.LargeSize
		slots = 0
	}
	obj, err := r.alloc(slots, size)
	r.allocs++
	if err != nil {
		return err
	}
	r.last = obj

	if r.rng.Float64() < r.p.SurvivorFrac {
		i := r.survivorPos
		r.survivorPos = (r.survivorPos + 1) % len(r.survivors)
		r.setRoot(r.survivors[i], obj)
		r.survivorBorn[i] = r.cycles.Load()
		return nil
	}
	if r.clusterHead != gengc.Nil && r.clusterSlot < r.m.Slots(r.clusterHead) &&
		r.rng.Float64() < r.p.AttachFrac {
		r.write(r.clusterHead, r.clusterSlot, obj)
		r.sh.kids[r.clusterPos][r.clusterSlot] = obj
		r.clusterSlot++
		return nil
	}
	pos := r.nurseryPos
	r.setRoot(r.nursery[pos], obj)
	clear(r.sh.kids[pos])
	r.nurseryPos = (r.nurseryPos + 1) % len(r.nursery)
	if slots > 0 {
		r.clusterHead, r.clusterPos, r.clusterSlot = obj, pos, 0
	} else {
		r.clusterHead = gengc.Nil
	}
	return nil
}

func (r *batchRunner) expireSurvivors(op int) {
	if r.p.SurvivorTTL <= 0 {
		return
	}
	now := r.cycles.Load()
	for k := 0; k < 2; k++ {
		i := (op*2 + k) % len(r.survivors)
		if r.sh.roots[r.survivors[i]] != gengc.Nil &&
			now-r.survivorBorn[i] >= int64(r.p.SurvivorTTL) {
			r.setRoot(r.survivors[i], gengc.Nil)
		}
	}
}

func (r *batchRunner) updateOld() {
	if len(r.base) == 0 || r.last == gengc.Nil || r.p.BaseSlots < 2 {
		return
	}
	var idx int
	if r.rng.Float64() < r.p.Locality {
		hot := len(r.base) / 16
		if hot == 0 {
			hot = 1
		}
		idx = r.rng.Intn(hot)
	} else {
		idx = r.rng.Intn(len(r.base))
	}
	slot := 1 + r.rng.Intn(r.p.BaseSlots-1)
	if old := r.oldRing[r.oldPos]; old.set {
		r.write(r.base[old.idx], old.slot, gengc.Nil)
		r.sh.baseSlots[old.idx*r.p.BaseSlots+old.slot] = gengc.Nil
	}
	r.oldRing[r.oldPos] = oldLoc{idx, slot, true}
	r.oldPos = (r.oldPos + 1) % len(r.oldRing)
	r.write(r.base[idx], slot, r.last)
	r.sh.baseSlots[idx*r.p.BaseSlots+slot] = r.last
}

func (r *batchRunner) chase() {
	if len(r.base) == 0 {
		return
	}
	x := r.base[r.rng.Intn(len(r.base))]
	for d := 0; d < 3 && x != gengc.Nil; d++ {
		s := r.m.Slots(x)
		if s == 0 {
			break
		}
		x = r.m.Read(x, r.rng.Intn(s))
	}
	r.sink += uint64(x)
}

// checkShape walks every structure the runner keeps rooted and compares
// it with the shadow: the root stack, the base chain (length, order and
// every slot) and the children of each rooted cluster head.
func (r *batchRunner) checkShape() error {
	m := r.m
	if got, want := m.NumRoots(), len(r.sh.roots); got != want {
		return fmt.Errorf("root stack depth %d, shadow has %d", got, want)
	}
	for i, want := range r.sh.roots {
		if got := m.Root(i); got != want {
			return fmt.Errorf("root %d holds %#x, shadow has %#x", i, got, want)
		}
	}
	x := m.Root(r.baseRoot)
	for i := len(r.base) - 1; i >= 0; i-- {
		if x != r.base[i] {
			return fmt.Errorf("base chain position %d is %#x, shadow has %#x", len(r.base)-1-i, x, r.base[i])
		}
		if got := m.Slots(x); got != r.p.BaseSlots {
			return fmt.Errorf("base object %d has %d slots, want %d", i, got, r.p.BaseSlots)
		}
		for s := 0; s < r.p.BaseSlots; s++ {
			if got, want := m.Read(x, s), r.sh.baseSlots[i*r.p.BaseSlots+s]; got != want {
				return fmt.Errorf("base object %d slot %d holds %#x, shadow has %#x", i, s, got, want)
			}
		}
		x = m.Read(x, 0)
		if i&1023 == 0 {
			m.Safepoint()
		}
	}
	if x != gengc.Nil {
		return fmt.Errorf("base chain longer than the %d objects built", len(r.base))
	}
	for pos, root := range r.nursery {
		head := m.Root(root)
		if head == gengc.Nil {
			continue
		}
		n := m.Slots(head)
		if n > r.p.SlotsMax && n > 0 {
			return fmt.Errorf("nursery head %d has %d slots, profile allows %d", pos, n, r.p.SlotsMax)
		}
		for s := 0; s < n; s++ {
			if got, want := m.Read(head, s), r.sh.kids[pos][s]; got != want {
				return fmt.Errorf("nursery head %d slot %d holds %#x, shadow has %#x", pos, s, got, want)
			}
		}
	}
	return nil
}

// batchRound is one round's measurements.
type batchRound struct {
	setup   time.Duration // runtime creation + base build
	wall    time.Duration // timed operations
	stolen  time.Duration // of wall, taken by the host (stealMeter)
	ops     int64
	calls   layerCalls
	failed  int64
	cpuProc time.Duration // process CPU over the timed window
	cpuMut  time.Duration // the mutator thread's CPU over the window
	peak    int64         // peak HeapBytes at batch ends and cycle ends

	batchNs []float64 // steal-free ns of each op batch (untraced rounds)
	obs     observed
}

// roundHooks lets the benchmark's tests reach into a round: corrupt
// runs after the operations and before the shape walk.
type roundHooks struct {
	corrupt func(r *batchRunner)
}

// runBatchRound runs one round of spec on a fresh runtime and passes it
// through the correctness gate. sink and sp are nil in untraced rounds.
func runBatchRound(spec batchSpec, seed int64, batchNs []float64, sink *eventSink, sp *spanLog, hooks roundHooks) (*batchRound, error) {
	res := &batchRound{batchNs: batchNs[:0]}
	t0 := time.Now()
	rt, err := gengc.New(batchOptions(sink)...)
	if err != nil {
		return nil, fmt.Errorf("creating runtime: %w", err)
	}
	obsv := newObserver(rt)

	r := &batchRunner{
		p:      spec.profile,
		rng:    rand.New(rand.NewSource(seed)),
		cycles: &obsv.cycles,
		sp:     sp,
	}
	var (
		wg       sync.WaitGroup
		runErr   error
		done     = make(chan struct{})
		closed   = make(chan struct{})
		parked   = make(chan struct{})
		verified = make(chan struct{})
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		r.m = rt.NewMutator()
		defer r.m.Detach()
		runErr = r.runTimed(rt, spec, t0, res, obsv, hooks)
		close(done)
		cooperateUntil(r.m, closed)
		close(parked)
		<-verified
	}()
	<-done
	rt.Close()
	close(closed)
	<-parked
	var gateErr error
	if runErr == nil {
		gateErr = errors.Join(rt.Verify(), rt.VerifyCardInvariant())
	}
	close(verified)
	wg.Wait()
	if runErr != nil {
		return nil, runErr
	}
	if gateErr != nil {
		return nil, fmt.Errorf("heap audit after close: %w", gateErr)
	}
	res.ops = int64(spec.ops)
	res.calls = layerCalls{r.allocs, r.writes, r.safepoints, r.allocBytes}
	res.failed = r.failed
	res.obs = obsv.finish(rt)
	res.peak = res.obs.peak
	return res, nil
}

// runTimed is the mutator goroutine's body between attach and the
// shape walk: base build (set-up), then the timed operations.
func (r *batchRunner) runTimed(rt *gengc.Runtime, spec batchSpec, t0 time.Time, res *batchRound, obsv *observer, hooks roundHooks) error {
	if err := r.setup(); err != nil {
		return err
	}
	res.setup = time.Since(t0)

	var thr, proc cpuSpan
	thr.start(rusageThread)
	proc.start(syscall.RUSAGE_SELF)
	r.steal.start()
	start := now()
	prev := start
	r.beginBatch(0, start)
	for op := 0; op < spec.ops; op++ {
		if op > 0 && op%opBatch == 0 {
			t := now()
			r.endBatch(prev, t, res, rt, obsv)
			r.beginBatch(int32(op/opBatch), t)
			prev = t
		}
		r.op(op)
	}
	end := now()
	r.endBatch(prev, end, res, rt, obsv)
	proc.stop()
	thr.stop()
	if err := errors.Join(thr.err, proc.err, r.steal.err); err != nil {
		return err
	}
	res.wall = time.Duration(end - start)
	res.stolen = time.Duration(r.steal.stolen)
	res.cpuProc, res.cpuMut = proc.used, thr.used

	if hooks.corrupt != nil {
		hooks.corrupt(r)
	}
	if err := r.checkShape(); err != nil {
		return fmt.Errorf("shape check: %w", err)
	}
	return nil
}

func (r *batchRunner) beginBatch(batch int32, t int64) {
	if r.sp == nil {
		return
	}
	r.sampling = batch%traceEvery == 0
	r.parent = r.sp.open(spanOpBatch, -1, batch, t)
}

func (r *batchRunner) endBatch(start, end int64, res *batchRound, rt *gengc.Runtime, obsv *observer) {
	d := r.steal.lap(end - start)
	if r.sp != nil {
		r.sp.close(r.parent, end)
	} else {
		res.batchNs = append(res.batchNs, float64(d))
	}
	obsv.sampleHeap(rt.HeapBytes())
}

// cooperateUntil keeps an idle mutator answering handshakes until stop
// closes, so Close can finish an in-flight cycle without waiting out
// the stall grace period.
func cooperateUntil(m *gengc.Mutator, stop <-chan struct{}) {
	t := time.NewTicker(100 * time.Microsecond)
	defer t.Stop()
	for {
		m.Safepoint()
		select {
		case <-stop:
			return
		case <-t.C:
		}
	}
}
