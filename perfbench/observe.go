package main

import (
	"sync/atomic"

	"gengc"
)

// observer collects what the runtime already publishes about one round:
// every OnCycle record, a cycle counter the workload's survivor expiry
// reads, and the peak HeapBytes seen at cycle ends and at the
// benchmark's own sample points.
type observer struct {
	cycles atomic.Int64
	peak   atomic.Int64
	// recs is appended on the collector goroutine only and read after
	// Close, which waits for that goroutine to exit.
	recs []gengc.CycleRecord
}

func newObserver(rt *gengc.Runtime) *observer {
	o := &observer{recs: make([]gengc.CycleRecord, 0, 1024)}
	rt.OnCycle(func(c gengc.CycleRecord) {
		o.recs = append(o.recs, c)
		o.cycles.Add(1)
		o.sampleHeap(rt.HeapBytes())
	})
	return o
}

func (o *observer) sampleHeap(b int64) {
	for {
		p := o.peak.Load()
		if b <= p || o.peak.CompareAndSwap(p, b) {
			return
		}
	}
}

// observed is a finished round's collector-side record.
type observed struct {
	cycles []gengc.CycleRecord
	snap   gengc.Snapshot // taken after Close and every Detach
	peak   int64
}

// finish snapshots the runtime once every mutator has detached (so the
// fleet pause statistics include them all).
func (o *observer) finish(rt *gengc.Runtime) observed {
	return observed{cycles: o.recs, snap: rt.Snapshot(), peak: o.peak.Load()}
}

// layerCalls counts a round's calls into the mutator-side layers and the
// bytes it asked the heap for.
type layerCalls struct{ allocs, writes, safepoints, allocBytes int64 }

func (c *layerCalls) add(o layerCalls) {
	c.allocs += o.allocs
	c.writes += o.writes
	c.safepoints += o.safepoints
	c.allocBytes += o.allocBytes
}
