package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"time"

	"gengc"
)

// roundStats is what one round, batch or server, hands the aggregation.
// A "request" is the unit of work a user waits on: a server request, or
// — in the closed-loop batch workloads — one op batch, whose arrival is
// the previous batch's completion.
type roundStats struct {
	traced bool
	setup  time.Duration
	wall   time.Duration
	stolen time.Duration // of wall, taken by the host (batch only)

	ops      int64 // mutator operations
	good     int64 // requests completed within the SLO
	served   int64 // requests completed at all
	failed   int64 // operations or requests failed or refused
	attempts int64 // operations or requests attempted (the JSON "attempted")

	cpuProc, cpuMut time.Duration
	cpuGen          time.Duration // server: the load generator's thread
	peak            int64
	calls           layerCalls
	obs             observed

	latNs     []float64 // per request, scheduled arrival to completion (missing = +Inf)
	serviceNs []float64 // per op batch / per served request's service time

	// Traced rounds only.
	blk    blocking
	callNs [numSpanKinds][]float64 // sampled call durations by kind
	events []gengc.TraceEvent

	// Server only: request-phase samples (ns).
	admitNs, queueNs, lateNs []float64
	retries                  int64
	offered                  int64
}

// blocking accumulates self time along the blocking path of the sampled
// roots (fully traced op batches or requests): every root's duration is
// split between the layers whose spans tile it.
type blocking struct {
	sampled float64            // Σ durations of the sampled roots
	all     float64            // Σ durations of every root of the round
	self    map[string]float64 // layer -> Σ self time within sampled roots
}

func (b *blocking) addSelf(layer string, ns float64) {
	if b.self == nil {
		b.self = map[string]float64{}
	}
	b.self[layer] += ns
}

// spanLayer names the layer behind each child span kind.
var spanLayer = [numSpanKinds]string{
	spanAlloc:     "heap",
	spanWrite:     "gc.barrier",
	spanSafepoint: "gc.safepoint",
}

// childSelf folds a span log's children into the blocking accumulator
// and the per-kind call-duration samples, returning the summed child
// time per parent span.
func (rs *roundStats) childSelf(l *spanLog) map[int32]float64 {
	under := map[int32]float64{}
	for _, s := range l.spans {
		if s.Parent < 0 {
			continue
		}
		d := float64(s.End - s.Start)
		under[s.Parent] += d
		rs.callNs[s.Kind] = append(rs.callNs[s.Kind], d)
		rs.blk.addSelf(spanLayer[s.Kind], d)
	}
	return under
}

// runBatch runs the batch workload's rounds and converts them.
func runBatch(o options, spec batchSpec) ([]*roundStats, error) {
	nBatches := spec.ops/opBatch + 1
	batchNs := make([]float64, 0, nBatches)
	sampled := nBatches/traceEvery + 1
	sp := newSpanLog(nBatches + sampled*opBatch*3)
	return runRounds(o, func(i int, traced bool) (*roundStats, error) {
		var sink *eventSink
		var log *spanLog
		if traced {
			sink, log = newEventSink(), sp
			log.reset()
		}
		r, err := runBatchRound(spec, o.seed*1000+int64(i), batchNs, sink, log, roundHooks{})
		if err != nil {
			return nil, err
		}
		rs := &roundStats{
			traced: traced, setup: r.setup, wall: r.wall, stolen: r.stolen,
			ops: r.ops, failed: r.failed, attempts: r.ops,
			cpuProc: r.cpuProc, cpuMut: r.cpuMut, peak: r.peak,
			calls: r.calls, obs: r.obs,
		}
		lat := r.batchNs
		if traced {
			rs.events = sink.events
			under := rs.childSelf(log)
			lat = nil
			for k, s := range log.spans {
				if s.Parent >= 0 {
					continue
				}
				d := float64(s.End - s.Start)
				lat = append(lat, d)
				rs.blk.all += d
				if s.ID%traceEvery == 0 {
					rs.blk.sampled += d
					rs.blk.addSelf("mutator", d-under[int32(k)])
				}
			}
		}
		rs.served = int64(len(lat))
		for _, d := range lat {
			if d <= float64(serverWorkload.slo) {
				rs.good++
			}
		}
		rs.latNs = append([]float64(nil), lat...)
		rs.serviceNs = rs.latNs
		return rs, nil
	})
}

// runServer runs the server workload's rounds and converts them.
func runServer(o options, spec serverSpec) ([]*roundStats, error) {
	var reqs []request
	return runRounds(o, func(i int, traced bool) (*roundStats, error) {
		var sink *eventSink
		if traced {
			sink = newEventSink()
		}
		r, err := runServerRound(spec, o.seed*1000+int64(i), reqs, sink, serverHooks{})
		if err != nil {
			return nil, err
		}
		reqs = r.reqs
		rs := &roundStats{
			traced: traced, setup: r.setup, wall: r.wall,
			ops:     r.calls.allocs + r.calls.writes,
			offered: int64(len(r.reqs)),
			cpuProc: r.cpuProc, cpuMut: r.cpuMut, cpuGen: r.cpuGen, peak: r.peak,
			calls: r.calls, obs: r.obs,
		}
		rs.attempts = rs.offered
		for k := range r.reqs {
			q := &r.reqs[k]
			rs.latNs = append(rs.latNs, q.latency())
			rs.lateNs = append(rs.lateNs, float64(q.submit-q.due))
			rs.admitNs = append(rs.admitNs, float64(q.admitted-q.submit))
			rs.retries += int64(q.retries)
			if q.outcome != served {
				rs.failed++
				continue
			}
			rs.served++
			rs.queueNs = append(rs.queueNs, float64(q.pickup-q.admitted))
			rs.serviceNs = append(rs.serviceNs, float64(q.done-q.pickup))
			if q.latency() <= float64(spec.slo) {
				rs.good++
			}
		}
		if traced {
			rs.events = sink.events
			for _, l := range r.logs {
				under := rs.childSelf(l)
				for k, s := range l.spans {
					if s.Parent >= 0 {
						continue
					}
					q := &r.reqs[s.ID]
					rs.blk.all += float64(q.done - q.due)
					if s.ID%serverTraceEvery != 0 {
						continue
					}
					rs.blk.sampled += float64(q.done - q.due)
					rs.blk.addSelf("loadgen", float64(q.submit-q.due))
					rs.blk.addSelf("gc.admission", float64(q.admitted-q.submit))
					rs.blk.addSelf("req.queue", float64(q.pickup-q.admitted))
					rs.blk.addSelf("mutator", float64(s.End-s.Start)-under[int32(k)])
				}
			}
		}
		return rs, nil
	})
}

// report is the printed result: human-readable lines (percentile sample
// counts, the reproducibility stanza) and then the JSON line.
type report struct {
	o     options
	res   result
	notes []string
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newReport(o options) *report {
	return &report{o: o, res: result{Correct: true, Metrics: map[string]metric{}}}
}

func (r *report) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.notes = append(r.notes, fmt.Sprintf("%s: %v, reported as -1", name, v))
		v = -1
	}
	r.res.Metrics[name] = metric{Value: v, Unit: unit}
}

// setQ reports a percentile and notes its sample count (and when fewer
// than minBeyond samples lie beyond it).
func (r *report) setQ(name, unit string, q quantile, scale float64) {
	note := fmt.Sprintf("%s: n=%d", name, q.N)
	if !q.OK {
		note += fmt.Sprintf(" (fewer than %d samples beyond it)", minBeyond)
	}
	r.notes = append(r.notes, note)
	v := q.Value * scale
	if q.N == 0 {
		v = 0
	}
	r.set(name, unit, v)
}

// noteQ prints a percentile that is reported but not part of this
// run's result.
func (r *report) noteQ(name, unit string, q quantile, scale float64) {
	note := fmt.Sprintf("%s: %.6g %s, n=%d, not in the result (see README.md)", name, q.Value*scale, unit, q.N)
	if !q.OK {
		note += fmt.Sprintf(" (fewer than %d samples beyond it)", minBeyond)
	}
	r.notes = append(r.notes, note)
}

func (r *report) print(w io.Writer) {
	stanza := map[string]any{
		"goos": runtime.GOOS, "goarch": runtime.GOARCH,
		"gomaxprocs": runtime.GOMAXPROCS(0), "numcpu": runtime.NumCPU(),
		"go": runtime.Version(), "workload": r.o.workload, "seed": r.o.seed,
		"seconds": r.o.seconds.Seconds(), "trace": r.o.trace,
		"server_rate_per_s": serverWorkload.rate,
		"page_cost_spins":   "off (WithPageCostSpins is never set)",
		"host_go_gc":        "off during every timed window",
	}
	b, _ := json.Marshal(stanza)
	fmt.Fprintf(w, "repro %s\n", b)
	sort.Strings(r.notes)
	for _, n := range r.notes {
		fmt.Fprintln(w, "note", n)
	}
	names := make([]string, 0, len(r.res.Metrics))
	for n := range r.res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.res.Metrics[n]
		fmt.Fprintf(w, "%-40s %14.6g %s\n", n, m.Value, m.Unit)
	}
	out, err := json.Marshal(r.res)
	if err != nil {
		panic(err) // a map of finite floats always encodes
	}
	fmt.Fprintln(w, string(out))
}

// split partitions rounds into untraced and traced.
func split(rounds []*roundStats) (plain, traced []*roundStats) {
	for _, rs := range rounds {
		if rs.traced {
			traced = append(traced, rs)
		} else {
			plain = append(plain, rs)
		}
	}
	return plain, traced
}

// perRound maps f over rounds.
func perRound(rounds []*roundStats, f func(*roundStats) float64) []float64 {
	out := make([]float64, len(rounds))
	for i, rs := range rounds {
		out[i] = f(rs)
	}
	return out
}

func pooled(rounds []*roundStats, f func(*roundStats) []float64) []float64 {
	var out []float64
	for _, rs := range rounds {
		out = append(out, f(rs)...)
	}
	return out
}

func countFailures(r *report, rounds []*roundStats) {
	for _, rs := range rounds {
		r.res.Attempted += rs.attempts
		r.res.Failed += rs.failed
	}
}

// tailPs are the percentiles reported for op batches and requests: the
// median, the p90 that BENCHMARK.json bounds, and the p99. On a virtual
// host the p99 follows hypervisor CPU steal too closely to bound
// (README.md), so it is printed here and reported by the traced run.
var tailPs = []float64{0.5, 0.9, 0.99}

// roundQuantiles returns the tailPs percentiles of each round's
// samples, each reduced to its median over the rounds: one round
// disturbed by the host cannot move the result. N is the smallest
// per-round sample count and OK holds only if every round had enough
// samples beyond.
func roundQuantiles(rounds []*roundStats, f func(*roundStats) []float64) []quantile {
	out := make([]quantile, len(tailPs))
	per := make([][]float64, len(tailPs))
	for i, rs := range rounds {
		q := quantiles(append([]float64(nil), f(rs)...), tailPs...)
		for k := range out {
			per[k] = append(per[k], q[k].Value)
			if i == 0 || q[k].N < out[k].N {
				out[k].N = q[k].N
			}
			out[k].OK = (i == 0 || out[k].OK) && q[k].OK
		}
	}
	for k := range out {
		out[k].Value = median(per[k])
	}
	return out
}

func serviceNs(rs *roundStats) []float64 { return rs.serviceNs }
func latNs(rs *roundStats) []float64     { return rs.latNs }

// endToEnd reports the user-visible metrics, from untraced rounds only.
// Every figure is a median over rounds. The batch workloads report no
// request metrics: there a request is one op batch, so they would be
// the op-batch metrics again in other units.
func endToEnd(r *report, rounds []*roundStats) {
	countFailures(r, rounds)
	r.set("mops_per_s", "Mop/s", median(perRound(rounds, func(rs *roundStats) float64 {
		return float64(rs.ops) / (rs.wall - rs.stolen).Seconds() / 1e6
	})))
	r.notes = append(r.notes, fmt.Sprintf("mops_per_s over wall time with host steal left in: %.6g Mop/s", median(perRound(rounds, func(rs *roundStats) float64 {
		return float64(rs.ops) / rs.wall.Seconds() / 1e6
	}))))
	r.set("cpu_ns_per_op", "ns", median(perRound(rounds, func(rs *roundStats) float64 {
		return float64(rs.cpuProc) / float64(rs.ops)
	})))
	svc := roundQuantiles(rounds, serviceNs)
	r.setQ("opbatch_p50_us", "us", svc[0], 1e-3)
	r.setQ("opbatch_p90_us", "us", svc[1], 1e-3)
	r.noteQ("opbatch_p99_us", "us", svc[2], 1e-3)
	r.set("setup_s", "s", median(perRound(rounds, func(rs *roundStats) float64 { return rs.setup.Seconds() })))
	r.set("heap_peak_mb", "MB", median(perRound(rounds, func(rs *roundStats) float64 {
		return float64(rs.peak) / (1 << 20)
	})))
	if r.o.workload != "server" {
		return
	}
	lat := roundQuantiles(rounds, latNs)
	r.setQ("req_p50_ms", "ms", lat[0], 1e-6)
	r.setQ("req_p90_ms", "ms", lat[1], 1e-6)
	r.noteQ("req_p99_ms", "ms", lat[2], 1e-6)
	r.set("goodput_slo_rps", "1/s", median(perRound(rounds, func(rs *roundStats) float64 {
		return float64(rs.good) / rs.wall.Seconds()
	})))
	r.set("cpu_us_per_req", "us", median(perRound(rounds, func(rs *roundStats) float64 {
		return float64(rs.cpuProc) / 1e3 / float64(rs.served)
	})))
}
