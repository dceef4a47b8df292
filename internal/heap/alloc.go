package heap

import "sync/atomic"

// Cache is a per-mutator allocation cache: one free-cell list per size
// class, threaded through the first word of each (blue) cell. It is the
// stand-in for the DLG thread-local allocation mechanism the paper
// mentions in §7: the common allocation path takes no lock and no
// atomic read-modify-write. Popped cells are accounted in per-class run
// words and published in batches (publishAllocRun), the heap's one
// allocation-accounting path.
type Cache struct {
	_ [64]byte // keeps the owner-written fields off others' cache lines

	head  [NumClasses]Addr
	count [NumClasses]int32

	// run[c] is class c's open allocation run, packed as
	// block<<runCountBits | cells popped and not yet published. A
	// refill fills an empty list from one block, so every listed cell
	// belongs to the run's block. Written only by the owner (or by
	// PublishAllocs at quiescence).
	run [NumClasses]atomic.Uint32

	// requested sums the requested sizes of the small allocations not
	// yet reported to the publish hook. Owner-private.
	requested int64

	_ [64]byte
}

// runCountBits is the width of a run word's cell count, enough for a
// full block of the smallest class; the remaining 20 bits hold any
// block index a 32-bit Addr can reach (2^32 / BlockSize).
const (
	runCountBits = 12
	runCountMask = 1<<runCountBits - 1
)

// Unpublished returns the bytes and objects the cache has allocated but
// not yet published into the heap's shard totals. Safe from any
// goroutine while the owner allocates.
func (c *Cache) Unpublished() (bytes, objects int64) {
	for class := range c.run {
		n := int64(c.run[class].Load() & runCountMask)
		bytes += n * int64(classSizes[class])
		objects += n
	}
	return bytes, objects
}

// refillBatch bounds how many free cells one refill moves from a block's
// free list into a mutator cache.
const refillBatch = 64

// SetPublishHook registers fn to receive the requested bytes of every
// publication — a cache's small allocations since its last one, or one
// large object — on the publishing goroutine, outside every heap lock.
// Set it before the first allocation.
func (h *Heap) SetPublishHook(fn func(requested int64)) { h.onPublish = fn }

// Alloc allocates an object with the given number of pointer slots and a
// total payload of at least size bytes (the header is added on top), and
// colors it with allocColor — the "create" routine of Figure 1. The
// pointer slots are zeroed. It returns ErrOutOfMemory when the heap
// cannot satisfy the request even from a fresh block; the caller is
// expected to force a collection and retry.
func (h *Heap) Alloc(c *Cache, slots int, size int, allocColor Color) (Addr, error) {
	addr, err := h.AllocBlue(c, slots, size)
	if err != nil {
		return 0, err
	}
	h.SetColor(addr, allocColor)
	return addr, nil
}

// AllocBlue allocates and initializes a cell but leaves it blue; the
// caller assigns the final color. Used by the toggle-free create
// protocol, whose color depends on the sweep position: a blue cell is
// invisible to a concurrently running sweep, so the window between
// allocation and coloring is safe.
func (h *Heap) AllocBlue(c *Cache, slots int, size int) (Addr, error) {
	need := HeaderBytes + slots*WordBytes
	if size < need {
		size = need
	}
	class, cell := ClassFor(size)
	if class < 0 {
		addr, err := h.allocLarge(slots, cell)
		if err == nil && h.onPublish != nil {
			h.onPublish(int64(size))
		}
		return addr, err
	}
	if c.count[class] == 0 {
		if err := h.refill(c, class); err != nil {
			return 0, err
		}
	}
	addr := c.head[class]
	c.head[class] = atomic.LoadUint32(&h.mem[addr/WordBytes])
	c.count[class]--
	c.run[class].Store(c.run[class].Load() + 1)
	c.requested += int64(size)
	h.initObject(addr, slots)
	return addr, nil
}

// publishAllocRun folds the cache's open run for class into the block
// and shard counters together, and reports the unreported requested
// bytes to the publish hook. The counters are added before the run is
// cleared: a concurrent Unpublished may count the run twice but never
// misses it.
func (h *Heap) publishAllocRun(c *Cache, class int) {
	w := c.run[class].Load()
	if n := w & runCountMask; n != 0 {
		h.blocks[w>>runCountBits].cached.Add(-int32(n))
		s := h.shardFor(class)
		s.cached.Add(-int64(n))
		s.allocatedBytes.Add(int64(n) * int64(classSizes[class]))
		s.allocatedObjects.Add(int64(n))
		c.run[class].Store(w - n)
	}
	if req := c.requested; req != 0 {
		c.requested = 0
		if h.onPublish != nil {
			h.onPublish(req)
		}
	}
}

// PublishAllocs folds all of the cache's pending allocation accounting
// into the shard and block counters without returning any cells. Refill
// and Flush publish implicitly; callers that need the global counters
// exact while keeping the cache warm — the verifier, tests asserting on
// AllocatedBytes — call this. The cache's owner must not be allocating
// concurrently.
func (h *Heap) PublishAllocs(c *Cache) {
	for class := 0; class < NumClasses; class++ {
		h.publishAllocRun(c, class)
	}
}

// initObject prepares a blue cell as a new object, leaving it blue.
// Order matters: the metadata and zeroed slots must be published before
// the caller's color store takes the cell out of blue, because the
// collector reads the color first (acquire) and only then the metadata
// and slots. Accounting is the caller's job (the counter depends on the
// tier the cell came from).
func (h *Heap) initObject(addr Addr, slots int) {
	g := addr / Granule
	atomic.StoreUint32(&h.slotsOf[g], uint32(slots))
	h.ages[g] = 0
	base := slotIndex(addr, 0)
	for i := 0; i < slots; i++ {
		atomic.StoreUint32(&h.mem[base+i], 0)
	}
}

// refill moves up to refillBatch free cells of the class into the cache,
// formatting a fresh block if no partially free block exists. Only the
// class's shard lock is held for list surgery; the page lock is taken
// briefly inside takeFreeBlock when a new block is needed.
func (h *Heap) refill(c *Cache, class int) error {
	s := h.shardFor(class)
	h.publishAllocRun(c, class)
	s.lock()
	defer s.unlock()
	s.refills.Add(1)
	for {
		// Prefer a block that already has free cells.
		list := h.partial[class]
		if n := len(list); n > 0 {
			b := list[n-1]
			bm := &h.blocks[b]
			taken := h.takeCells(c, class, s, b)
			if bm.freeCells == 0 {
				h.partial[class] = list[:n-1]
				bm.inPartial = false
			}
			if taken > 0 {
				return nil
			}
			continue
		}
		// Otherwise format a fresh block for this class.
		b, ok := h.takeFreeBlock(class)
		if !ok {
			return ErrOutOfMemory
		}
		h.formatBlock(b, class, s)
		h.partial[class] = append(h.partial[class], b)
		h.blocks[b].inPartial = true
	}
}

// takeCells moves up to refillBatch cells from block b's free list into
// the cache's empty list and opens the class's run on b. Caller holds
// the class shard lock s. The cells move as they are linked, unwritten:
// the cache pops by count and never follows the last cell's link.
func (h *Heap) takeCells(c *Cache, class int, s *centralShard, b uint32) int {
	bm := &h.blocks[b]
	taken := min(bm.freeCells, refillBatch)
	c.head[class] = bm.freeHead
	for i := int32(0); i < taken; i++ {
		bm.freeHead = atomic.LoadUint32(&h.mem[bm.freeHead/WordBytes])
	}
	bm.freeCells -= taken
	c.count[class] = taken
	c.run[class].Store(b << runCountBits)
	bm.cached.Add(taken)
	s.cached.Add(int64(taken))
	s.freeCells.Add(-int64(taken))
	return int(taken)
}

// takeFreeBlock pops one unassigned block from the page pool and stamps
// it with its destination class while still under the page lock: the
// large-object scan (findRun, also under the page lock) must never see
// a block that is neither in the free pool nor assigned, or it could
// hand the same block to two owners. Caller holds the class shard lock
// (shard → page is the lock order).
func (h *Heap) takeFreeBlock(class int) (uint32, bool) {
	p := &h.pages
	p.lock()
	defer p.unlock()
	n := len(p.freeBlocks)
	if n == 0 {
		return 0, false
	}
	b := p.freeBlocks[n-1]
	p.freeBlocks = p.freeBlocks[:n-1]
	h.blocks[b].class.Store(int32(class))
	return b, true
}

// formatBlock carves a block already stamped with the class into blue
// cells linked into the block's free list. Caller holds the class shard
// lock s; the block is not yet on any partial list, so nothing else can
// touch its cells.
func (h *Heap) formatBlock(b uint32, class int, s *centralShard) {
	bm := &h.blocks[b]
	bm.freeHead = 0
	bm.freeCells = 0
	cell := classSizes[class]
	base := b * BlockSize
	for i := BlockSize/cell - 1; i >= 0; i-- {
		addr := base + uint32(i*cell)
		h.SetColor(addr, Blue)
		atomic.StoreUint32(&h.mem[addr/WordBytes], bm.freeHead)
		bm.freeHead = addr
		bm.freeCells++
	}
	s.freeCells.Add(int64(bm.freeCells))
}

// allocLarge allocates an object spanning whole blocks, leaving it
// blue. size is already rounded to a granule multiple.
func (h *Heap) allocLarge(slots, size int) (Addr, error) {
	n := (size + BlockSize - 1) / BlockSize
	p := &h.pages
	p.lock()
	start := h.findRun(n)
	if start < 0 {
		p.unlock()
		return 0, ErrOutOfMemory
	}
	h.blocks[start].class.Store(blockLargeHead)
	h.blocks[start].nBlocks = uint32(n)
	for i := 1; i < n; i++ {
		h.blocks[start+i].class.Store(blockLargeCont)
	}
	h.removeFreeBlocks(start, n)
	p.unlock()

	addr := Addr(start) * BlockSize
	atomic.StoreUint32(&h.largeSize[addr/Granule], uint32(n*BlockSize))
	h.initObject(addr, slots)
	p.largeBytes.Add(int64(n * BlockSize))
	p.largeObjects.Add(1)
	return addr, nil
}

// findRun locates n contiguous free blocks, returning the first index or
// -1. Caller holds the page lock. Linear scan: the heap has at most a
// few thousand blocks and large allocations are rare.
func (h *Heap) findRun(n int) int {
	run := 0
	for b := 1; b < h.nBlocks; b++ {
		if h.blocks[b].class.Load() == blockFree {
			run++
			if run == n {
				return b - n + 1
			}
		} else {
			run = 0
		}
	}
	return -1
}

// removeFreeBlocks deletes blocks [start, start+n) from the free stack.
// Caller holds the page lock.
func (h *Heap) removeFreeBlocks(start, n int) {
	out := h.pages.freeBlocks[:0]
	for _, b := range h.pages.freeBlocks {
		if int(b) < start || int(b) >= start+n {
			out = append(out, b)
		}
	}
	h.pages.freeBlocks = out
}

// Flush returns all cells held in the cache to their blocks' free lists.
// Called when a mutator detaches so its cached cells can be reused and
// their blocks eventually reclaimed.
func (h *Heap) Flush(c *Cache) {
	for class := 0; class < NumClasses; class++ {
		h.publishAllocRun(c, class)
		if c.count[class] > 0 {
			h.flushClass(c, class)
		}
	}
}

// flushClass splices the cache's list of class back onto its block's
// free list. Every cell on the list belongs to the run's block, so the
// splice is one lock-free walk to the list's tail, then two stores under
// one shard lock acquisition.
func (h *Heap) flushClass(c *Cache, class int) {
	b, n := c.run[class].Load()>>runCountBits, c.count[class]
	head, tail := c.head[class], c.head[class]
	for i := int32(1); i < n; i++ {
		tail = atomic.LoadUint32(&h.mem[tail/WordBytes])
	}
	c.count[class] = 0
	bm := &h.blocks[b]
	s := h.shardFor(class)
	s.lock()
	s.flushes.Add(1)
	atomic.StoreUint32(&h.mem[tail/WordBytes], bm.freeHead)
	bm.freeHead = head
	bm.freeCells += n
	bm.cached.Add(-n)
	if !bm.inPartial {
		h.partial[class] = append(h.partial[class], b)
		bm.inPartial = true
	}
	s.freeCells.Add(int64(n))
	s.cached.Add(-int64(n))
	s.unlock()
}

// FreeCell releases one dead cell during sweep: the object is recolored
// blue and threaded back onto its block's free list. Only the collector
// calls it, for cells whose color was the clear color, so it can never
// race with an allocation of the same cell.
//
// The returned bytes are the cell size (what the paper's "space freed"
// numbers count).
func (h *Heap) FreeCell(addr Addr) int {
	b := addr / BlockSize
	bm := &h.blocks[b]
	class := int(bm.class.Load())
	if class == int(blockLargeHead) {
		return h.freeLarge(addr)
	}
	size := classSizes[class]
	h.SetColor(addr, Blue)
	s := h.shardFor(class)
	s.lock()
	atomic.StoreUint32(&h.mem[addr/WordBytes], bm.freeHead)
	bm.freeHead = addr
	bm.freeCells++
	if !bm.inPartial {
		h.partial[class] = append(h.partial[class], b)
		bm.inPartial = true
	}
	s.freeCells.Add(1)
	s.unlock()
	s.allocatedBytes.Add(-int64(size))
	s.allocatedObjects.Add(-1)
	return size
}

// FreeBatch frees a batch of dead cells with one shard lock acquisition
// per size class present in the batch. Large objects in the batch are
// freed individually. It returns the total bytes freed.
func (h *Heap) FreeBatch(addrs []Addr) int {
	total := 0
	var larges []Addr
	var byClass [NumClasses][]Addr
	for _, addr := range addrs {
		class := h.blocks[addr/BlockSize].class.Load()
		if class == blockLargeHead {
			larges = append(larges, addr)
			continue
		}
		byClass[class] = append(byClass[class], addr)
	}
	for class, list := range byClass {
		if len(list) > 0 {
			total += h.freeClassBatch(class, list)
		}
	}
	for _, addr := range larges {
		total += h.freeLarge(addr)
	}
	return total
}

// freeClassBatch threads a batch of dead cells of one class back onto
// their blocks' free lists under a single shard lock acquisition.
func (h *Heap) freeClassBatch(class int, list []Addr) int {
	size := classSizes[class]
	s := h.shardFor(class)
	s.lock()
	for _, addr := range list {
		b := addr / BlockSize
		bm := &h.blocks[b]
		h.SetColor(addr, Blue)
		atomic.StoreUint32(&h.mem[addr/WordBytes], bm.freeHead)
		bm.freeHead = addr
		bm.freeCells++
		if !bm.inPartial {
			h.partial[class] = append(h.partial[class], b)
			bm.inPartial = true
		}
	}
	s.freeCells.Add(int64(len(list)))
	s.unlock()
	s.allocatedBytes.Add(-int64(size * len(list)))
	s.allocatedObjects.Add(-int64(len(list)))
	return size * len(list)
}

// freeLarge returns a large object's blocks to the free pool.
func (h *Heap) freeLarge(addr Addr) int {
	h.SetColor(addr, Blue)
	b := int(addr / BlockSize)
	p := &h.pages
	p.lock()
	n := int(h.blocks[b].nBlocks)
	size := n * BlockSize
	for i := 0; i < n; i++ {
		h.blocks[b+i].class.Store(blockFree)
		h.blocks[b+i].nBlocks = 0
		p.freeBlocks = append(p.freeBlocks, uint32(b+i))
	}
	p.unlock()
	p.largeBytes.Add(-int64(size))
	p.largeObjects.Add(-1)
	return size
}

// ReclaimEmptyBlocks returns fully free small-object blocks (no live
// cells, none cached) to the free pool so another size class can reuse
// them. The collector calls it at the end of sweep.
//
// Retirement is two-phase to respect the invariant that class
// transitions happen only under the page lock: under each shard lock
// the block is stripped from its partial list and its free list reset
// (it then looks like a fully allocated block with no free cells —
// harmless, nothing can allocate from or free into it); the blockFree
// stamp and free-pool push happen under the page lock afterwards.
func (h *Heap) ReclaimEmptyBlocks() int {
	var freed []uint32
	for class := 0; class < NumClasses; class++ {
		s := h.shardFor(class)
		s.lock()
		cells := int32(CellsPerBlock(class))
		out := h.partial[class][:0]
		removed := int64(0)
		for _, b := range h.partial[class] {
			bm := &h.blocks[b]
			if bm.freeCells == cells && bm.cached.Load() == 0 {
				bm.freeHead = 0
				bm.freeCells = 0
				bm.inPartial = false
				freed = append(freed, b)
				removed += int64(cells)
			} else {
				out = append(out, b)
			}
		}
		h.partial[class] = out
		s.freeCells.Add(-removed)
		s.unlock()
	}
	if len(freed) > 0 {
		p := &h.pages
		p.lock()
		for _, b := range freed {
			h.blocks[b].class.Store(blockFree)
			p.freeBlocks = append(p.freeBlocks, b)
		}
		p.unlock()
	}
	return len(freed)
}

// FreeBlockCount reports how many unassigned blocks remain.
func (h *Heap) FreeBlockCount() int {
	h.pages.lock()
	defer h.pages.unlock()
	return len(h.pages.freeBlocks)
}
