package gc

import (
	"time"

	"gengc/internal/fault"
	"gengc/internal/heap"
	"gengc/internal/trace"
)

// Batched write barrier (Config.Barrier == BarrierBatched): instead of
// shading and card-marking on every pointer store — a CAS, a locked
// gray-buffer append and an atomic or on the hot path — the barrier
// appends the values to shade and the cards to mark into private
// per-mutator buffers with plain stores, and drains them at the
// mutator's next safe-point response, when a buffer fills, and at
// Detach.
//
// Why draining at safe points preserves the sliding-views invariants
// (the full argument is in DESIGN.md, "Barrier modes"):
//
//   - Shades only matter to trace termination, and the trace cannot
//     terminate without an acknowledgement round in which this mutator
//     stores its ack — Cooperate flushes *before* that store, so every
//     buffered shade is CASed, appended and counted in grayProduced
//     before the collector can observe the ack. The fixpoint check in
//     trace() then either finds the gray objects or sees the counter
//     move and loops.
//
//   - Card marks only matter to the *next* partial collection's card
//     scan, which runs after the sync1 handshake completes — and every
//     mutator's sync1 response flushed its buffer first. A mark that
//     lands mid-scan is the same race the eager barrier already has,
//     and the §7.2 protocol tolerates it (the card stays dirty for the
//     cycle after).
//
//   - Deferred shades are evaluated against the handshake status the
//     entries were buffered under: Cooperate flushes before it stores
//     the new status, and the status only changes at safe points, so a
//     buffer never spans a phase boundary. The §7.1 allocation-color
//     acceptance therefore applies to exactly the same stores it would
//     have applied to eagerly. (The clear/alloc color pair is a set
//     invariant under the toggle, so entries that flush after
//     SwitchAllocationClearColors are still classified correctly.)
//
//   - A buffered shade can never reference a swept (blue) object: the
//     sweep only runs after the trace terminates, termination requires
//     this mutator's flush-then-ack, and blue never matches the
//     clear/alloc colors the flush CASes from anyway.

// barrierFlushThreshold bounds the deferred entries a batched mutator
// may hold before it flushes inline: well above any real fan-out
// between safe points, small enough that a flush stays cache-resident.
const barrierFlushThreshold = 256

// barrierBuf is one mutator's deferred-barrier state. Only the owning
// goroutine touches it; the collector sees its effects exclusively
// through the flush (gray buffer, card table, remembered set).
type barrierBuf struct {
	// shade holds values whose MarkGray is deferred; cards holds
	// objects whose card mark (or remembered-set entry) is deferred.
	shade []heap.Addr
	cards []heap.Addr

	// scratch collects the flush's CAS winners so they enter the gray
	// buffer under a single lock acquisition.
	scratch []heap.Addr

	// lastCard is the card index of the most recent cards entry (-1
	// when empty): consecutive stores into the same card — the common
	// case for field-by-field initialization and UpdateBatch — are
	// deduplicated at append time.
	lastCard int

	// stores and dedup accumulate between flushes and are published to
	// the collector's counters at each flush.
	stores int64
	dedup  int64
}

func newBarrierBuf() *barrierBuf {
	return &barrierBuf{
		shade:    make([]heap.Addr, 0, barrierFlushThreshold+2),
		cards:    make([]heap.Addr, 0, 64),
		scratch:  make([]heap.Addr, 0, 64),
		lastCard: -1,
	}
}

// bufferShade defers MarkGray(v).
func (b *barrierBuf) bufferShade(v heap.Addr) {
	if v == 0 {
		return
	}
	b.shade = append(b.shade, v)
}

// bufferCard defers the card mark (or remembered-set record) for x,
// deduplicating consecutive same-card entries.
func (m *Mutator) bufferCard(x heap.Addr) {
	b := m.bb
	ci := m.c.Cards.IndexOf(x)
	if ci == b.lastCard {
		b.dedup++
		return
	}
	b.lastCard = ci
	b.cards = append(b.cards, x)
}

// updateBatched is Update with the barrier's shared-memory work
// deferred: the per-phase decisions mirror the eager switch exactly —
// what would have been shaded is buffered for shading, what would have
// marked a card is buffered for marking — and the store itself happens
// in the same place.
func (m *Mutator) updateBatched(x heap.Addr, i int, y heap.Addr) {
	c := m.c
	b := m.bb
	sync := Status(m.status.Load()) != StatusAsync
	switch c.cfg.Mode {
	case GenerationalAging:
		if sync {
			b.bufferShade(c.H.LoadSlot(x, i))
			b.bufferShade(y)
		} else if c.tracing.Load() {
			b.bufferShade(c.H.LoadSlot(x, i))
		}
		c.H.StoreSlot(x, i, y)
		// Per §7.2 the card entry follows the store; the flush keeps
		// that order (all buffered stores precede the flush's marks).
		m.bufferCard(x)
	case Generational:
		if sync {
			b.bufferShade(c.H.LoadSlot(x, i))
			b.bufferShade(y)
		} else {
			if c.tracing.Load() {
				b.bufferShade(c.H.LoadSlot(x, i))
			}
			m.bufferCard(x)
		}
		c.H.StoreSlot(x, i, y)
	default: // NonGenerational
		if sync {
			b.bufferShade(c.H.LoadSlot(x, i))
			b.bufferShade(y)
		} else if c.tracing.Load() {
			b.bufferShade(c.H.LoadSlot(x, i))
		}
		c.H.StoreSlot(x, i, y)
	}
	b.stores++
	if len(b.shade)+len(b.cards) >= barrierFlushThreshold {
		m.flushBarrier("full")
	}
}

// flushBarrier drains the deferred-barrier buffers: buffered values are
// shaded (the flush batches the CAS winners into the gray buffer under
// one lock acquisition and one grayProduced addition), buffered cards
// are marked (or remembered). reason tags the trace event
// ("handshake"|"full"|"detach").
//
// Ordering contract: Cooperate calls this before it stores its new
// status and acknowledgement epoch, and Detach before it hands its gray
// buffer to the collector — the stores that publish a response publish
// the flush with it. In eager mode (no buffer) it is a no-op.
func (m *Mutator) flushBarrier(reason string) {
	b := m.bb
	if b == nil || (len(b.shade) == 0 && len(b.cards) == 0) {
		return
	}
	c := m.c
	// Delay-only seam (fault.BarrierFlush): dropping a flush and then
	// acknowledging would un-publish shades the trace-termination
	// check relies on, so Drop/Fail decisions are ignored. Under a
	// virtual scheduler this parks the mutator with entries buffered
	// but nothing drained — the step that exposes any response made
	// before its flush (the UnsafeBreakFlushBeforeAck needle).
	c.seamDelay(fault.BarrierFlush)
	var start time.Time
	if m.ring != nil {
		start = time.Now()
	}
	nShade, nCards := len(b.shade), len(b.cards)
	if nShade > 0 {
		// The markGray/markGrayAging acceptance rule, applied under
		// the pre-response status (see the file comment).
		cc := heap.Color(c.clearColor.Load())
		ac := heap.Color(c.allocColor.Load())
		acceptAlloc := c.cfg.Mode != GenerationalAging &&
			Status(m.status.Load()) != StatusAsync
		for _, v := range b.shade {
			from := cc
			if col := c.H.Color(v); col != cc {
				if !acceptAlloc || col != ac {
					continue
				}
				from = ac
			}
			if c.H.CasColor(v, from, heap.Gray) {
				b.scratch = append(b.scratch, v)
			}
		}
		b.shade = b.shade[:0]
		if len(b.scratch) > 0 {
			m.gray.Lock()
			m.gray.buf = append(m.gray.buf, b.scratch...)
			m.gray.Unlock()
			c.grayProduced.Add(int64(len(b.scratch)))
			b.scratch = b.scratch[:0]
		}
	}
	if nCards > 0 {
		if c.cfg.UseRememberedSet {
			for _, x := range b.cards {
				m.remember(x)
			}
		} else {
			for _, x := range b.cards {
				c.Cards.Mark(x)
			}
		}
		b.cards = b.cards[:0]
		b.lastCard = -1
	}
	c.barrierFlushes.Add(1)
	c.barrierStores.Add(b.stores)
	c.barrierDedup.Add(b.dedup)
	b.stores, b.dedup = 0, 0
	if m.ring != nil {
		m.ring.Emit(trace.Event{
			Ev:     "barrierflush",
			T:      c.tracer.Rel(start),
			D:      time.Since(start).Nanoseconds(),
			Worker: m.id,
			N:      int64(nShade),
			M:      int64(nCards),
			K:      reason,
		})
	}
}

// BarrierStats is the write barrier's counter snapshot. The counters
// only advance in batched mode; Mode reports which barrier ran. The
// contention matrix (gcbench -experiment matrix) records Flushes and
// CardDedupHits per cell — on Zipf-skewed workloads the dedup counter is the direct
// measure of how much hot-card traffic the batching elides.
type BarrierStats struct {
	// Mode is the configured barrier.
	Mode BarrierMode

	// Flushes counts buffer drains (safe-point responses, buffer-full
	// flushes and detaches that had entries to publish).
	Flushes int64

	// BufferedStores counts barriered pointer stores that went through
	// the deferred path.
	BufferedStores int64

	// CardDedupHits counts card entries elided because they targeted
	// the same card as the preceding store — work the eager barrier
	// would have spent an atomic or on.
	CardDedupHits int64
}

// BarrierStats returns the barrier counter snapshot.
func (c *Collector) BarrierStats() BarrierStats {
	return BarrierStats{
		Mode:           c.cfg.Barrier,
		Flushes:        c.barrierFlushes.Load(),
		BufferedStores: c.barrierStores.Load(),
		CardDedupHits:  c.barrierDedup.Load(),
	}
}
