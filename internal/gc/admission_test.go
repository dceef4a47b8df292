package gc

import (
	"context"
	"errors"
	"testing"
	"time"

	"gengc/internal/heap"
)

// admissionCollector builds a collector with the given admission
// parameters and the paper-default heap.
func admissionCollector(t *testing.T, ac AdmissionConfig) *Collector {
	t.Helper()
	c, err := New(Config{Mode: Generational, Admission: &ac})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	return c
}

func TestAdmissionTokenCycle(t *testing.T) {
	c := admissionCollector(t, AdmissionConfig{MaxInFlight: 2})
	a := c.Admission()
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if err := a.Admit(ctx, PriorityLow); err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
	}
	st := a.Stats()
	if !st.Enabled || st.Admitted != 2 || st.InFlight != 2 {
		t.Fatalf("stats after 2 admits: %+v", st)
	}
	a.Release()
	a.Release()
	if st := a.Stats(); st.InFlight != 0 {
		t.Fatalf("in-flight after releases: %+v", st)
	}
	// Tokens are reusable after release.
	if err := a.Admit(ctx, PriorityHigh); err != nil {
		t.Fatalf("admit after release: %v", err)
	}
	a.Release()
}

func TestAdmissionQueueTimeoutShed(t *testing.T) {
	c := admissionCollector(t, AdmissionConfig{
		MaxInFlight: 1, MaxQueue: 4, QueueTimeout: 10 * time.Millisecond})
	a := c.Admission()
	if err := a.Admit(context.Background(), PriorityHigh); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err := a.Admit(context.Background(), PriorityHigh)
	if !errors.Is(err, ErrShed) {
		t.Fatalf("queued admit past the timeout: err = %v, want ErrShed", err)
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Fatalf("shed took %v, want ~10ms", waited)
	}
	st := a.Stats()
	if st.ShedTimeout != 1 || st.Shed != 1 {
		t.Fatalf("stats after timeout shed: %+v", st)
	}
	a.Release()
}

func TestAdmissionDeadlineAwareQueueWait(t *testing.T) {
	// The queue timeout is generous but the caller's own deadline is
	// not: the wait must be bounded by the deadline, not QueueTimeout.
	c := admissionCollector(t, AdmissionConfig{
		MaxInFlight: 1, MaxQueue: 4, QueueTimeout: 30 * time.Second})
	a := c.Admission()
	if err := a.Admit(context.Background(), PriorityHigh); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := a.Admit(ctx, PriorityHigh)
	if !errors.Is(err, ErrShed) {
		t.Fatalf("err = %v, want ErrShed", err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("deadline-bounded queue wait took %v", waited)
	}
	a.Release()
}

func TestAdmissionQueueFullShed(t *testing.T) {
	c := admissionCollector(t, AdmissionConfig{
		MaxInFlight: 1, MaxQueue: 1, QueueTimeout: 200 * time.Millisecond})
	a := c.Admission()
	if err := a.Admit(context.Background(), PriorityHigh); err != nil {
		t.Fatal(err)
	}
	// Occupy the single queue slot with a background waiter.
	waiting := make(chan error, 1)
	go func() { waiting <- a.Admit(context.Background(), PriorityHigh) }()
	for a.Stats().Queued == 0 {
		time.Sleep(time.Millisecond)
	}
	if err := a.Admit(context.Background(), PriorityHigh); !errors.Is(err, ErrShed) {
		t.Fatalf("admit with full queue: err = %v, want ErrShed", err)
	}
	if st := a.Stats(); st.ShedQueueFull != 1 {
		t.Fatalf("stats: %+v, want ShedQueueFull 1", st)
	}
	// Releasing the token admits the queued waiter.
	a.Release()
	if err := <-waiting; err != nil {
		t.Fatalf("queued waiter: %v", err)
	}
	a.Release()
}

func TestAdmissionDegradedShedsLowPriority(t *testing.T) {
	c := admissionCollector(t, AdmissionConfig{
		MaxInFlight: 8, SlipWindow: 50 * time.Millisecond})
	a := c.Admission()
	// A deadline slip puts the controller into degraded mode for the
	// slip window.
	c.Pacer().NoteSlip()
	if !a.Degraded() {
		t.Fatal("controller not degraded right after a slip")
	}
	if err := a.Admit(context.Background(), PriorityLow); !errors.Is(err, ErrShed) {
		t.Fatalf("low-priority admit while degraded: err = %v, want ErrShed", err)
	}
	if err := a.Admit(context.Background(), PriorityHigh); err != nil {
		t.Fatalf("high-priority admit while degraded: %v", err)
	}
	a.Release()
	st := a.Stats()
	if st.ShedDegraded != 1 || st.DegradedEnters != 1 {
		t.Fatalf("stats: %+v, want ShedDegraded 1 DegradedEnters 1", st)
	}
	// Degraded mode expires with the slip window.
	deadline := time.Now().Add(5 * time.Second)
	for a.Degraded() {
		if time.Now().After(deadline) {
			t.Fatal("controller still degraded long after the slip window")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := a.Admit(context.Background(), PriorityLow); err != nil {
		t.Fatalf("low-priority admit after recovery: %v", err)
	}
	a.Release()
}

func TestAdmissionRedLineDegrades(t *testing.T) {
	c := admissionCollector(t, AdmissionConfig{MaxInFlight: 8, RedLine: 0.5})
	a := c.Admission()
	// Fill the heap past the red line with large objects, which
	// publish into the heap's allocation total at once: the pacer's
	// occupancy is that total.
	var cache heap.Cache
	var objs []heap.Addr
	for c.Pacer().OccupancyRatio() < 0.5 {
		x, err := c.H.Alloc(&cache, 0, 64<<10, heap.White)
		if err != nil {
			t.Fatalf("filling the heap: %v", err)
		}
		objs = append(objs, x)
	}
	if err := a.Admit(context.Background(), PriorityLow); !errors.Is(err, ErrShed) {
		t.Fatalf("low-priority admit over the red line: err = %v, want ErrShed", err)
	}
	if err := a.Admit(context.Background(), PriorityHigh); err != nil {
		t.Fatalf("high-priority admit over the red line: %v", err)
	}
	a.Release()
	// Freeing the objects exits degraded mode.
	for _, x := range objs {
		c.H.FreeCell(x)
	}
	if a.Degraded() {
		t.Fatal("controller degraded with an empty heap")
	}
}

func TestAdmissionDrainSheds(t *testing.T) {
	c := admissionCollector(t, AdmissionConfig{MaxInFlight: 1, MaxQueue: 4,
		QueueTimeout: 30 * time.Second})
	a := c.Admission()
	if err := a.Admit(context.Background(), PriorityHigh); err != nil {
		t.Fatal(err)
	}
	// A queued waiter must be released promptly when drain begins.
	waiting := make(chan error, 1)
	go func() { waiting <- a.Admit(context.Background(), PriorityHigh) }()
	for a.Stats().Queued == 0 {
		time.Sleep(time.Millisecond)
	}
	a.BeginDrain()
	select {
	case err := <-waiting:
		if !errors.Is(err, ErrShed) {
			t.Fatalf("queued waiter at drain: err = %v, want ErrShed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued waiter not released by BeginDrain")
	}
	if err := a.Admit(context.Background(), PriorityHigh); !errors.Is(err, ErrShed) {
		t.Fatalf("admit after drain: err = %v, want ErrShed", err)
	}
	st := a.Stats()
	if st.ShedDraining != 2 {
		t.Fatalf("stats: %+v, want ShedDraining 2", st)
	}
	a.Release()
}

func TestAdmissionStopBeginsDrain(t *testing.T) {
	c, err := New(Config{Mode: Generational, Admission: &AdmissionConfig{}})
	if err != nil {
		t.Fatal(err)
	}
	c.Stop()
	if !c.Admission().Draining() {
		t.Fatal("Stop did not begin admission drain")
	}
}

func TestAdmissionConfigValidation(t *testing.T) {
	for _, bad := range []AdmissionConfig{
		{MaxInFlight: -1},
		{MaxQueue: -1},
		{QueueTimeout: -time.Second},
		{RedLine: 1.5},
		{SlipWindow: -time.Second},
	} {
		_, err := New(Config{Mode: Generational, Admission: &bad})
		if !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("Admission %+v: err = %v, want ErrInvalidConfig", bad, err)
		}
	}
}

func TestObserveRequestSLO(t *testing.T) {
	c, err := New(Config{Mode: Generational, RequestSLO: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	c.ObserveRequest(100 * time.Microsecond)
	c.ObserveRequest(5 * time.Millisecond)
	if got := c.RequestSLOBreaches(); got != 1 {
		t.Fatalf("RequestSLOBreaches = %d, want 1", got)
	}
	st := c.RequestStats()
	if st.Count != 2 || st.Mutator != -1 {
		t.Fatalf("RequestStats = %+v, want Count 2 Mutator -1", st)
	}
	if st.Max < 5*time.Millisecond {
		t.Fatalf("RequestStats.Max = %v, want >= 5ms", st.Max)
	}
}
