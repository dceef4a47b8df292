package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"syscall"
	"time"

	"gengc"
)

// The server workload: an open-loop Poisson request stream with
// periodic bursts, admitted through the runtime's admission controller
// and served by two request workers that each own a mutator. Each
// request builds the cmd/gcserve graph shape under AllocCtx with the
// SLO as its deadline and is rooted in the worker's session ring.

// serverSpec fixes the server workload. rate is an absolute arrival
// rate committed here: it must not follow the code under test, or the
// offered load would move with it.
type serverSpec struct {
	rate        float64       // base arrivals per second
	window      time.Duration // load window of one round
	burstEvery  time.Duration // a burst starts at every multiple of this
	burstLen    time.Duration
	burstFactor float64
	lowFrac     float64 // share of PriorityLow arrivals
	workers     int
	objects     int // graph nodes per request
	slots       int // pointer slots per node (slot 0 links the chain)
	size        int // bytes per node
	ring        int // completed graphs each worker keeps rooted
	slo         time.Duration
	maxRetries  int           // ErrStalled retries per request
	backoff     time.Duration // base retry backoff, doubled per retry
	idleTick    time.Duration // how often an idle worker answers handshakes
}

// serverWorkload is the open-loop request stream. Its base rate is
// about two thirds of the highest rate the server answered without a
// failed request on the reference host (README.md has the sweep).
var serverWorkload = serverSpec{
	rate:        5000,
	window:      2 * time.Second,
	burstEvery:  time.Second,
	burstLen:    100 * time.Millisecond,
	burstFactor: 2,
	lowFrac:     0.25,
	workers:     2,
	objects:     96,
	slots:       2,
	size:        128,
	ring:        32,
	slo:         50 * time.Millisecond,
	maxRetries:  2,
	backoff:     2 * time.Millisecond,
	idleTick:    time.Millisecond,
}

func serverOptions(sink *eventSink, spec serverSpec) []gengc.Option {
	opts := []gengc.Option{
		gengc.WithMode(gengc.Generational),
		gengc.WithHeapBytes(32 << 20),
		gengc.WithYoungBytes(4 << 20),
		gengc.WithAdmission(gengc.AdmissionConfig{}),
		gengc.WithRequestSLO(spec.slo),
	}
	if sink != nil {
		opts = append(opts, gengc.WithTraceSink(sink))
	}
	return opts
}

// arrivals draws one round's schedule: arrival offsets from the window
// start (Poisson at the instantaneous rate, doubled inside bursts) and
// each arrival's priority.
func (s serverSpec) arrivals(seed int64) ([]int64, []gengc.Priority) {
	rng := rand.New(rand.NewSource(seed))
	var due []int64
	var pri []gengc.Priority
	for t := 0.0; ; {
		rate := s.rate
		if math.Mod(t, s.burstEvery.Seconds()) < s.burstLen.Seconds() {
			rate *= s.burstFactor
		}
		t += rng.ExpFloat64() / rate
		if t >= s.window.Seconds() {
			return due, pri
		}
		due = append(due, int64(t*1e9))
		p := gengc.PriorityHigh
		if rng.Float64() < s.lowFrac {
			p = gengc.PriorityLow
		}
		pri = append(pri, p)
	}
}

// outcome is how a request ended.
type outcome uint8

const (
	pending outcome = iota
	served
	shed   // refused by admission
	failed // allocation failed past its retries or its deadline
)

// request is one request's timeline, in now() nanoseconds. Each field
// has one writer: the generator (due), the submitting goroutine
// (submit, admitted, and outcome when shed) or the serving worker.
type request struct {
	due, submit, admitted, pickup, done int64
	retries                             int32
	outcome                             outcome
}

// latency is the request's time from scheduled arrival to completion;
// a shed or failed request missed every limit.
func (q *request) latency() float64 {
	if q.outcome != served {
		return missing
	}
	return float64(q.done - q.due)
}

// serverWorker is one request worker: a mutator, its session ring of
// rooted graphs and the ring's shadow.
type serverWorker struct {
	spec serverSpec
	m    *gengc.Mutator
	rng  *rand.Rand

	ring  []int       // root slots of the session ring
	heads []gengc.Ref // shadow: the graph head each ring slot must hold
	next  int

	calls layerCalls

	sp       *spanLog
	sampling bool
	parent   int32
}

func (w *serverWorker) allocCtx(ctx context.Context) (gengc.Ref, error) {
	w.calls.allocs++
	w.calls.allocBytes += int64(w.spec.size)
	if !w.sampling {
		return w.m.AllocCtx(ctx, w.spec.slots, w.spec.size)
	}
	t := now()
	x, err := w.m.AllocCtx(ctx, w.spec.slots, w.spec.size)
	w.sp.add(spanAlloc, w.parent, t, now())
	return x, err
}

func (w *serverWorker) write(x gengc.Ref, i int, y gengc.Ref) {
	w.calls.writes++
	if !w.sampling {
		w.m.Write(x, i, y)
		return
	}
	t := now()
	w.m.Write(x, i, y)
	w.sp.add(spanWrite, w.parent, t, now())
}

func (w *serverWorker) safepoint() {
	w.calls.safepoints++
	if !w.sampling {
		w.m.Safepoint()
		return
	}
	t := now()
	w.m.Safepoint()
	w.sp.add(spanSafepoint, w.parent, t, now())
}

// build allocates one request's chain of spec.objects nodes, head
// first, each linked through slot 0 of its predecessor. The head is
// rooted while the chain grows.
func (w *serverWorker) build(ctx context.Context) (gengc.Ref, error) {
	head, err := w.allocCtx(ctx)
	if err != nil {
		return gengc.Nil, err
	}
	w.m.PushRoot(head)
	defer w.m.PopRoots(1)
	prev := head
	for i := 1; i < w.spec.objects; i++ {
		obj, err := w.allocCtx(ctx)
		if err != nil {
			return gengc.Nil, err
		}
		w.write(prev, 0, obj)
		prev = obj
		if i&15 == 0 {
			w.safepoint()
		}
	}
	return head, nil
}

// serve runs one admitted request: build with jittered-backoff retries
// of transient ErrStalled failures while the deadline allows, then root
// the graph in the session ring.
func (w *serverWorker) serve(q *request, adm *gengc.Admission) {
	ctx, cancel := context.WithDeadline(context.Background(), at(q.due).Add(w.spec.slo))
	defer cancel()
	for attempt := 0; ; attempt++ {
		head, err := w.build(ctx)
		if err == nil {
			w.keep(head)
			q.outcome = served
			return
		}
		if attempt >= w.spec.maxRetries || !errors.Is(err, gengc.ErrStalled) || !w.backoffWait(ctx, attempt) {
			q.outcome = failed
			return
		}
		adm.NoteRetry()
		q.retries++
	}
}

// backoffWait sleeps the jittered backoff before retry attempt+1 while
// answering handshakes; false when the deadline expires first.
func (w *serverWorker) backoffWait(ctx context.Context, attempt int) bool {
	base := w.spec.backoff << uint(attempt)
	until := time.Now().Add(base/2 + time.Duration(w.rng.Int63n(int64(base))))
	for time.Now().Before(until) {
		if ctx.Err() != nil {
			return false
		}
		w.m.Safepoint()
		time.Sleep(200 * time.Microsecond)
	}
	return ctx.Err() == nil
}

func (w *serverWorker) keep(head gengc.Ref) {
	if len(w.ring) < w.spec.ring {
		w.ring = append(w.ring, w.m.PushRoot(head))
		w.heads = append(w.heads, head)
		return
	}
	w.m.SetRoot(w.ring[w.next], head)
	w.heads[w.next] = head
	w.next = (w.next + 1) % len(w.ring)
}

// checkShape walks the session ring: every slot holds the graph head
// the shadow recorded, and every graph is a chain of exactly
// spec.objects nodes with spec.slots slots and nothing but the chain
// link stored.
func (w *serverWorker) checkShape() error {
	if got, want := w.m.NumRoots(), len(w.ring); got != want {
		return fmt.Errorf("root stack depth %d, session ring has %d", got, want)
	}
	for k, root := range w.ring {
		x := w.m.Root(root)
		if x != w.heads[k] {
			return fmt.Errorf("ring slot %d holds %#x, shadow has %#x", k, x, w.heads[k])
		}
		n := 0
		for ; x != gengc.Nil; x = w.m.Read(x, 0) {
			n++
			if n > w.spec.objects {
				break
			}
			if got := w.m.Slots(x); got != w.spec.slots {
				return fmt.Errorf("ring slot %d node %d has %d slots, want %d", k, n, got, w.spec.slots)
			}
			for s := 1; s < w.spec.slots; s++ {
				if w.m.Read(x, s) != gengc.Nil {
					return fmt.Errorf("ring slot %d node %d slot %d is not nil", k, n, s)
				}
			}
		}
		if n != w.spec.objects {
			return fmt.Errorf("ring slot %d graph has %d nodes, want %d", k, n, w.spec.objects)
		}
	}
	return nil
}

// serverRound is one round's measurements.
type serverRound struct {
	setup   time.Duration // runtime creation + workers attached
	wall    time.Duration // first arrival to last completion
	reqs    []request
	calls   layerCalls // summed over the workers
	cpuProc time.Duration
	cpuMut  time.Duration // summed over the worker threads
	cpuGen  time.Duration // the load generator's thread
	peak    int64
	logs    []*spanLog // per worker, traced rounds only
	obs     observed
}

// serverHooks lets the benchmark's tests reach into a round: corrupt
// runs on each worker after the load and before the shape walk.
type serverHooks struct {
	corrupt func(w *serverWorker)
}

// serverTraceEvery makes every serverTraceEvery-th request of a traced
// round a fully traced one: each AllocCtx, Write and Safepoint call of
// its service becomes a child span.
const serverTraceEvery = 8

// loop serves admitted requests until the queue closes, answering
// handshakes every idleTick while idle.
func (w *serverWorker) loop(queue <-chan int32, reqs []request, adm *gengc.Admission, obsv *observer, rt *gengc.Runtime) {
	tick := time.NewTicker(w.spec.idleTick)
	defer tick.Stop()
	for {
		select {
		case id, ok := <-queue:
			if !ok {
				return
			}
			w.handle(id, &reqs[id], adm, obsv, rt)
		case <-tick.C:
			w.safepoint()
		}
	}
}

// handle serves one admitted request and releases its admission token.
func (w *serverWorker) handle(id int32, q *request, adm *gengc.Admission, obsv *observer, rt *gengc.Runtime) {
	q.pickup = now()
	if w.sp != nil {
		w.sampling = id%serverTraceEvery == 0
		w.parent = w.sp.open(spanService, -1, id, q.pickup)
	}
	w.serve(q, adm)
	adm.Release()
	q.done = now()
	if w.sp != nil {
		w.sp.close(w.parent, q.done)
		w.sampling = false
	}
	obsv.sampleHeap(rt.HeapBytes())
	w.safepoint()
}

// runServerRound runs one load window on a fresh runtime and passes it
// through the correctness gate. reqs is reused as the round's request
// table; sink is nil in untraced rounds.
func runServerRound(spec serverSpec, seed int64, reqs []request, sink *eventSink, hooks serverHooks) (*serverRound, error) {
	due, pri := spec.arrivals(seed)
	n := len(due)
	if cap(reqs) < n {
		reqs = make([]request, n)
	}
	res := &serverRound{reqs: reqs[:n]}
	clear(res.reqs)
	for i, d := range due {
		res.reqs[i].due = d
	}
	t0 := time.Now()
	rt, err := gengc.New(serverOptions(sink, spec)...)
	if err != nil {
		return nil, fmt.Errorf("creating runtime: %w", err)
	}
	obsv := newObserver(rt)
	adm := rt.Admission()

	// queue carries admitted request numbers to the workers; it is
	// sized to the number of sends so an admitted request never blocks
	// its submitter.
	queue := make(chan int32, len(due))
	var (
		ready, drained, parked, workersWG sync.WaitGroup
		begin                             = make(chan struct{})
		closed                            = make(chan struct{})
		verified                          = make(chan struct{})
		mu                                sync.Mutex
		errs                              []error
	)
	workers := make([]*serverWorker, spec.workers)
	for i := range workers {
		w := &serverWorker{spec: spec, rng: rand.New(rand.NewSource(seed*31 + int64(i)))}
		if sink != nil {
			w.sp = newSpanLog(n/4 + n/serverTraceEvery*(3*spec.objects))
		}
		workers[i] = w
		ready.Add(1)
		drained.Add(1)
		parked.Add(1)
		workersWG.Add(1)
		go func() {
			defer workersWG.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			w.m = rt.NewMutator()
			defer w.m.Detach()
			ready.Done()
			<-begin
			var thr cpuSpan
			thr.start(rusageThread)
			w.loop(queue, res.reqs, adm, obsv, rt)
			thr.stop()
			if hooks.corrupt != nil {
				hooks.corrupt(w)
			}
			err := errors.Join(thr.err, w.checkShape())
			mu.Lock()
			res.cpuMut += thr.used
			if err != nil {
				errs = append(errs, fmt.Errorf("worker %d: %w", i, err))
			}
			mu.Unlock()
			drained.Done()
			cooperateUntil(w.m, closed)
			parked.Done()
			<-verified
		}()
	}
	ready.Wait()
	res.setup = time.Since(t0)

	var proc cpuSpan
	proc.start(syscall.RUSAGE_SELF)
	start := now()
	close(begin)
	var genErr error
	res.cpuGen, genErr = generate(res.reqs, pri, start, spec.slo, adm, queue)
	close(queue)
	drained.Wait()
	end := now()
	proc.stop()

	rt.Close()
	close(closed)
	parked.Wait()
	gateErr := errors.Join(errs...)
	if gateErr == nil {
		gateErr = errors.Join(rt.Verify(), rt.VerifyCardInvariant())
	}
	close(verified)
	workersWG.Wait()
	if gateErr != nil {
		return nil, gateErr
	}
	if err := errors.Join(proc.err, genErr); err != nil {
		return nil, err
	}
	res.wall = time.Duration(end - start)
	res.cpuProc = proc.used
	for _, w := range workers {
		res.calls.add(w.calls)
		if w.sp != nil {
			res.logs = append(res.logs, w.sp)
		}
	}
	res.obs = obsv.finish(rt)
	res.peak = res.obs.peak
	return res, nil
}

// generate is the open loop's load generator: it submits each request
// at its scheduled arrival (offsets from start) on a goroutine of its
// own, which asks for admission with the SLO as deadline and hands the
// admitted request to the workers. It returns the generator thread's
// CPU time once every submission has finished.
func generate(reqs []request, pri []gengc.Priority, start int64, slo time.Duration, adm *gengc.Admission, queue chan<- int32) (time.Duration, error) {
	// The generator runs on its own OS thread so its CPU can be told
	// apart from the collector's, and so it can sleep with nanosleep at
	// a fine timer slack: time.Sleep wakes up to a millisecond late,
	// which would clump arrivals into millisecond batches.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	err := fineTimerSlack()
	if err != nil {
		// Arrivals still go out, with the default timer slack.
		err = fmt.Errorf("load generator: %w", err)
	}
	var gen cpuSpan
	var submitters sync.WaitGroup
	gen.start(rusageThread)
	for i := range reqs {
		q := &reqs[i]
		q.due += start
		if d := q.due - now(); d > 0 {
			// Run the submitters just spawned before blocking: a
			// goroutine left on the run queue of a P whose thread sits
			// in nanosleep waits for the runtime to retake that P.
			runtime.Gosched()
			if d = q.due - now(); d > 0 {
				sleepPrecise(d)
			}
		}
		submitters.Add(1)
		go func(id int32, p gengc.Priority) {
			defer submitters.Done()
			q.submit = now()
			ctx, cancel := context.WithDeadline(context.Background(), at(q.due).Add(slo))
			err := adm.Admit(ctx, p)
			cancel()
			q.admitted = now()
			if err != nil {
				q.outcome = shed
				return
			}
			queue <- id
		}(int32(i), pri[i])
	}
	gen.stop()
	submitters.Wait()
	return gen.used, errors.Join(err, gen.err)
}
