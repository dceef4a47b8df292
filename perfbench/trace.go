package main

import (
	"time"

	"gengc"
)

// epoch anchors every timestamp the benchmark takes; now reads the
// monotonic clock as nanoseconds since it.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// at converts a now() timestamp back to wall time (for deadlines).
func at(t int64) time.Time { return epoch.Add(time.Duration(t)) }

// spanKind names a span: one layer boundary the benchmark times, named
// after the module behind it.
type spanKind uint8

const (
	spanOpBatch   spanKind = iota // batch workloads: one op batch (a root)
	spanAlloc                     // heap: one Alloc/AllocCtx call
	spanWrite                     // gc.barrier: one Write call
	spanSafepoint                 // gc.safepoint: one Safepoint call
	spanService                   // server: a worker serving one request
	numSpanKinds
)

// span is one timed interval. Children of one parent never overlap (they
// run on the parent's goroutine), so a parent's self time is its length
// minus its children's. ID is the op batch or request number, shared by
// a request's spans.
type span struct {
	Start, End int64
	Parent     int32
	ID         int32
	Kind       spanKind
}

// spanLog is one goroutine's spans, preallocated before the timed
// window and aggregated after it.
type spanLog struct{ spans []span }

func newSpanLog(capacity int) *spanLog { return &spanLog{spans: make([]span, 0, capacity)} }

// open starts a span and returns its index.
func (l *spanLog) open(k spanKind, parent, id int32, t int64) int32 {
	l.spans = append(l.spans, span{Start: t, End: t, Parent: parent, ID: id, Kind: k})
	return int32(len(l.spans) - 1)
}

func (l *spanLog) close(i int32, t int64) { l.spans[i].End = t }

// add records a finished child span of parent.
func (l *spanLog) add(k spanKind, parent int32, start, end int64) {
	l.spans = append(l.spans, span{Start: start, End: end, Parent: parent, ID: l.spans[parent].ID, Kind: k})
}

func (l *spanLog) reset() { l.spans = l.spans[:0] }

// eventSink keeps the collector's own event stream (WithTraceSink) in
// memory for the traced rounds. The collector serializes Emit calls and
// drains its rings at cycle ends and at Close, so the events are
// complete once Close returns.
type eventSink struct{ events []gengc.TraceEvent }

func newEventSink() *eventSink { return &eventSink{events: make([]gengc.TraceEvent, 0, 1<<16)} }

func (s *eventSink) Emit(e gengc.TraceEvent) { s.events = append(s.events, e) }
func (s *eventSink) Flush() error            { return nil }
