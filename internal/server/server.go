// Package server is the request/response engine that reframes the
// collector as the memory engine of a long-running daemon: simulated
// requests allocate object graphs under AllocCtx deadlines on a pool of
// worker-owned mutators, an open-loop load generator (loadgen.go)
// drives Poisson arrivals with ramps and bursts, and the runtime's
// admission controller (gengc.WithAdmission) converts overload into
// prompt sheds instead of SLO collapse or OOM. gcbench -experiment
// server sweeps it across arrival rates into BENCH_server.json;
// DESIGN.md §"Server mode & admission control" has the control-loop
// picture.
package server

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"gengc"
)

// Config parameterizes a Server. Zero fields assume the defaults.
type Config struct {
	// Workers is the number of request-worker goroutines; each owns
	// one mutator for its lifetime. Default 4.
	Workers int

	// QueueCap is the request channel's buffer. With an admission
	// controller armed the controller's MaxInFlight+MaxQueue bound is
	// the real limit and this only needs to exceed it; without one
	// (the naive leg of the overload experiment) this is the unbounded
	// queue stand-in — submitters block once it fills, modeling a
	// server that keeps accepting work it cannot finish. Default 65536.
	QueueCap int

	// MaxRetries bounds per-request retries of transient ErrStalled
	// failures (jittered exponential backoff between attempts).
	// Default 2; negative disables retries.
	MaxRetries int

	// RetryBackoff is the base backoff before the first retry; each
	// further retry doubles it, and every sleep is jittered ±50%.
	// Default 2ms.
	RetryBackoff time.Duration

	// SessionObjects is how many completed request graphs each worker
	// keeps rooted (a ring evicting the oldest) — the daemon's
	// session/cache state, which is what gives requests a live set to
	// collect against. Default 32.
	SessionObjects int

	// Seed seeds the workers' backoff-jitter PRNGs.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Workers == 0 {
		c.Workers = 4
	}
	if c.QueueCap == 0 {
		c.QueueCap = 1 << 16
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 2
	}
	if c.RetryBackoff == 0 {
		c.RetryBackoff = 2 * time.Millisecond
	}
	if c.SessionObjects == 0 {
		c.SessionObjects = 32
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Request is one unit of work: allocate a linked graph of Objects
// objects (Slots pointer slots and Size payload bytes each) under a
// latency budget.
type Request struct {
	// Priority classifies the request for degraded-mode shedding.
	Priority gengc.Priority

	// Objects, Slots and Size shape the allocated graph: a chain of
	// Objects objects, each with Slots pointer slots (slot 0 links the
	// chain) and at least Size payload bytes.
	Objects int
	Slots   int
	Size    int

	// Deadline is the end-to-end latency budget, measured from
	// arrival: the allocation context expires when it runs out, so
	// queue wait spent before the worker picked the request up counts
	// against it. 0 means no deadline (the naive leg).
	Deadline time.Duration

	arrival time.Time
}

// Stats is the server's cumulative counter snapshot.
type Stats struct {
	// Submitted counts Submit calls; Shed the ones rejected by the
	// admission controller (wrapping gengc.ErrShed); Rejected the ones
	// refused because the server was draining.
	Submitted int64
	Shed      int64
	Rejected  int64

	// Completed counts requests whose graph was fully allocated;
	// Retries the transient-failure retry rounds spent on them.
	Completed int64
	Retries   int64

	// FailedStalled counts requests abandoned on an allocation
	// deadline (ErrStalled after the retry budget); FailedOOM on heap
	// exhaustion (ErrOutOfMemory); FailedClosed on runtime shutdown.
	FailedStalled int64
	FailedOOM     int64
	FailedClosed  int64
}

// Server is the request engine: a bounded request channel consumed by
// Workers goroutines, each owning one mutator, fronted by the runtime's
// admission controller when one is armed.
type Server struct {
	rt  *gengc.Runtime
	adm *gengc.Admission
	cfg Config

	reqCh chan Request

	// drainMu guards the draining flag against the Submit path: Submit
	// holds the read side across its send, so Drain can flip the flag
	// and know no new request will enter the channel afterwards.
	drainMu  sync.RWMutex
	draining bool

	// pending tracks accepted-but-unfinished requests (queued or in a
	// worker); Drain waits on it before closing the channel.
	pending sync.WaitGroup
	workers sync.WaitGroup

	submitted atomic.Int64
	shed      atomic.Int64
	rejected  atomic.Int64
	completed atomic.Int64
	retries   atomic.Int64
	fStalled  atomic.Int64
	fOOM      atomic.Int64
	fClosed   atomic.Int64
}

// New builds a server over rt and starts its workers. The caller keeps
// ownership of nothing: Drain flushes in-flight work and closes rt.
func New(rt *gengc.Runtime, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		rt:    rt,
		adm:   rt.Admission(),
		cfg:   cfg,
		reqCh: make(chan Request, cfg.QueueCap),
	}
	for i := 0; i < cfg.Workers; i++ {
		s.workers.Add(1)
		go s.worker(i)
	}
	return s
}

// Runtime returns the runtime the server allocates against.
func (s *Server) Runtime() *gengc.Runtime { return s.rt }

// Submit offers one request. The request's latency clock starts now —
// admission queueing, channel wait and allocation all count against its
// Deadline and its recorded latency. The error wraps gengc.ErrShed when
// the admission controller rejected it and gengc.ErrClosed when the
// server is draining. Submit may block when the request channel is full
// and no admission controller bounds it (the naive overload mode).
func (s *Server) Submit(req Request) error {
	req.arrival = time.Now()
	s.submitted.Add(1)
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	if s.draining {
		s.rejected.Add(1)
		return fmt.Errorf("server: draining: %w", gengc.ErrClosed)
	}
	if s.adm != nil {
		ctx := context.Background()
		if req.Deadline > 0 {
			// The admission queue wait is bounded by the request's own
			// budget: a request that cannot make its deadline anyway is
			// shed now, while retrying elsewhere is still cheap.
			var cancel context.CancelFunc
			ctx, cancel = context.WithDeadline(ctx, req.arrival.Add(req.Deadline))
			defer cancel()
		}
		if err := s.adm.Admit(ctx, req.Priority); err != nil {
			s.shed.Add(1)
			return fmt.Errorf("server: %w", err)
		}
	}
	s.pending.Add(1)
	s.reqCh <- req
	return nil
}

// worker consumes requests until the channel closes. Each worker owns
// one mutator and a session ring of rooted request graphs — the live
// set that makes collection matter.
func (s *Server) worker(id int) {
	defer s.workers.Done()
	m := s.rt.NewMutator()
	defer m.Detach()
	rng := rand.New(rand.NewSource(s.cfg.Seed + int64(id)*7919))

	// The session ring: root slots cycling over the last
	// SessionObjects completed graph heads.
	ring := make([]int, 0, s.cfg.SessionObjects)
	next := 0

	for req := range s.reqCh {
		head, err := s.process(m, rng, req)
		if err == nil {
			s.completed.Add(1)
			s.rt.ObserveRequest(time.Since(req.arrival))
			if len(ring) < cap(ring) {
				ring = append(ring, m.PushRoot(head))
			} else {
				m.SetRoot(ring[next], head)
				next = (next + 1) % len(ring)
			}
		} else {
			switch {
			case errors.Is(err, gengc.ErrStalled):
				s.fStalled.Add(1)
			case errors.Is(err, gengc.ErrOutOfMemory):
				s.fOOM.Add(1)
			case errors.Is(err, gengc.ErrClosed):
				s.fClosed.Add(1)
			}
		}
		if s.adm != nil {
			s.adm.Release()
		}
		s.pending.Done()
		m.Safepoint()
	}
}

// process allocates one request's graph, retrying transient ErrStalled
// failures with jittered exponential backoff while the deadline allows.
// It returns the graph head for the caller to root.
func (s *Server) process(m *gengc.Mutator, rng *rand.Rand, req Request) (gengc.Ref, error) {
	ctx := context.Background()
	if req.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, req.arrival.Add(req.Deadline))
		defer cancel()
	}
	var err error
	for attempt := 0; ; attempt++ {
		var head gengc.Ref
		head, err = s.buildGraph(ctx, m, req)
		if err == nil {
			return head, nil
		}
		// Only allocation stalls are transient: the collector may free
		// enough on the next cycle. OOM past the runtime's own retry
		// budget and a closed runtime will not improve.
		if attempt >= s.cfg.MaxRetries || !errors.Is(err, gengc.ErrStalled) {
			return gengc.Nil, err
		}
		if s.adm != nil {
			s.adm.NoteRetry()
		}
		s.retries.Add(1)
		if !s.backoff(ctx, m, rng, attempt) {
			return gengc.Nil, err
		}
	}
}

// backoff sleeps the jittered exponential delay before retry attempt+1,
// cooperating with handshakes so a backing-off worker cannot stall the
// collector it is waiting on. Returns false when ctx expired instead.
func (s *Server) backoff(ctx context.Context, m *gengc.Mutator, rng *rand.Rand, attempt int) bool {
	base := s.cfg.RetryBackoff << uint(attempt)
	// Jitter ±50%: decorrelates the retry storms of workers that
	// failed together.
	d := base/2 + time.Duration(rng.Int63n(int64(base)))
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if ctx.Err() != nil {
			return false
		}
		m.Safepoint()
		time.Sleep(200 * time.Microsecond)
	}
	return ctx.Err() == nil
}

// buildGraph allocates the request's object chain: head first, each
// further object linked through slot 0 of its predecessor. The head is
// rooted for the duration so a collection mid-build cannot reclaim the
// partial graph.
func (s *Server) buildGraph(ctx context.Context, m *gengc.Mutator, req Request) (gengc.Ref, error) {
	slots := req.Slots
	if slots < 1 {
		slots = 1
	}
	head, err := m.AllocCtx(ctx, slots, req.Size)
	if err != nil {
		return gengc.Nil, err
	}
	m.PushRoot(head)
	defer m.PopRoots(1)
	prev := head
	for i := 1; i < req.Objects; i++ {
		obj, err := m.AllocCtx(ctx, slots, req.Size)
		if err != nil {
			return gengc.Nil, err
		}
		m.Write(prev, 0, obj)
		prev = obj
		if i&15 == 0 {
			m.Safepoint()
		}
	}
	return head, nil
}

// Stats snapshots the server's counters.
func (s *Server) Stats() Stats {
	return Stats{
		Submitted:     s.submitted.Load(),
		Shed:          s.shed.Load(),
		Rejected:      s.rejected.Load(),
		Completed:     s.completed.Load(),
		Retries:       s.retries.Load(),
		FailedStalled: s.fStalled.Load(),
		FailedOOM:     s.fOOM.Load(),
		FailedClosed:  s.fClosed.Load(),
	}
}

// Drain shuts the server down gracefully: stop admitting (new Submit
// calls fail with gengc.ErrClosed, the admission controller sheds with
// reason "draining"), flush every accepted request through the workers,
// then close the runtime. ctx bounds the flush wait; on expiry the
// channel is closed anyway — workers finish the requests already
// dequeued, late queued ones fail against the closing runtime — so
// Drain always returns with the runtime closed. Idempotent calls after
// the first return immediately.
func (s *Server) Drain(ctx context.Context) error {
	s.drainMu.Lock()
	if s.draining {
		s.drainMu.Unlock()
		return nil
	}
	s.draining = true
	s.drainMu.Unlock()
	if s.adm != nil {
		s.adm.BeginDrain()
	}

	flushed := make(chan struct{})
	go func() { s.pending.Wait(); close(flushed) }()
	var err error
	select {
	case <-flushed:
	case <-ctx.Done():
		err = fmt.Errorf("server: drain: %w", ctx.Err())
	}
	close(s.reqCh)
	s.workers.Wait()
	s.rt.Close()
	return err
}
