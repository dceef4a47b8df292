package main

import (
	"time"

	"gengc"
)

// perLayer reports the traced run: each layer's counts, call latencies,
// self time and blocking-path share from the traced rounds, the CPU
// split and failure share from the untraced rounds run beside them, and
// the tracing overhead between the two.
func perLayer(r *report, rounds []*roundStats) {
	countFailures(r, rounds)
	plain, traced := split(rounds)
	perT := func(f func(*roundStats) float64) float64 { return meanOver(traced, f) }
	var cycles []gengc.CycleRecord
	for _, rs := range traced {
		cycles = append(cycles, rs.obs.cycles...)
	}
	calls := func(k spanKind) []float64 {
		return pooled(traced, func(rs *roundStats) []float64 { return rs.callNs[k] })
	}

	// heap
	r.set("heap.alloc_calls", "count", perT(func(rs *roundStats) float64 { return float64(rs.calls.allocs) }))
	q := quantiles(calls(spanAlloc), 0.5, 0.99)
	r.setQ("heap.alloc_ns_p50", "ns", q[0], 1)
	r.setQ("heap.alloc_ns_p99", "ns", q[1], 1)
	var allocWaits, allocCalls float64
	for _, rs := range traced {
		allocCalls += float64(rs.calls.allocs)
		for _, e := range rs.events {
			if e.Ev == "pause" && e.K == "allocwait" {
				allocWaits++
			}
		}
	}
	r.set("heap.alloc_slow_frac", "ratio", ratio(allocWaits, allocCalls))
	r.set("heap.refills_per_kop", "count", perT(func(rs *roundStats) float64 {
		return ratio(float64(rs.obs.snap.Alloc.Refills), float64(rs.ops)/1e3)
	}))
	r.set("heap.contended", "count", perT(func(rs *roundStats) float64 { return float64(rs.obs.snap.Alloc.Contended()) }))

	// gc.barrier
	r.set("gc.barrier.writes", "count", perT(func(rs *roundStats) float64 { return float64(rs.calls.writes) }))
	q = quantiles(calls(spanWrite), 0.5, 0.99)
	r.setQ("gc.barrier.write_ns_p50", "ns", q[0], 1)
	r.setQ("gc.barrier.write_ns_p99", "ns", q[1], 1)
	r.set("gc.barrier.flushes", "count", perT(func(rs *roundStats) float64 { return float64(rs.obs.snap.Barrier.Flushes) }))

	// gc.safepoint and the program's own pause records
	r.set("gc.safepoint.calls", "count", perT(func(rs *roundStats) float64 { return float64(rs.calls.safepoints) }))
	q = quantiles(calls(spanSafepoint), 0.5, 0.99)
	r.setQ("gc.safepoint.ns_p50", "ns", q[0], 1)
	r.setQ("gc.safepoint.ns_p99", "ns", q[1], 1)
	r.set("gc.pause.count", "count", perT(func(rs *roundStats) float64 { return float64(rs.obs.snap.Fleet.Count) }))
	var pauses []float64
	for _, rs := range traced {
		for _, e := range rs.events {
			if e.Ev == "pause" {
				pauses = append(pauses, float64(e.D))
			}
		}
	}
	r.setQ("gc.pause.p99_us", "us", quantiles(pauses, 0.99)[0], 1e-3)

	// gc.cycle
	var partials, fulls []gengc.CycleRecord
	for _, c := range cycles {
		if c.Kind == 0 {
			partials = append(partials, c)
		} else {
			fulls = append(fulls, c)
		}
	}
	r.set("gc.cycle.partials", "count", float64(len(partials))/float64(len(traced)))
	r.set("gc.cycle.fulls", "count", float64(len(fulls))/float64(len(traced)))
	r.set("gc.cycle.busy_frac", "ratio", perT(func(rs *roundStats) float64 {
		var busy time.Duration
		for _, c := range rs.obs.cycles {
			busy += c.Duration
		}
		return ratio(float64(busy), float64(rs.wall))
	}))
	durMs := func(cs []gengc.CycleRecord, f func(gengc.CycleRecord) time.Duration) []float64 {
		out := make([]float64, len(cs))
		for i, c := range cs {
			out[i] = float64(f(c)) / 1e6
		}
		return out
	}
	r.set("gc.cycle.partial_ms_p50", "ms", zeroNaN(median(durMs(partials, func(c gengc.CycleRecord) time.Duration { return c.Duration }))))
	r.set("gc.cycle.full_ms_p50", "ms", zeroNaN(median(durMs(fulls, func(c gengc.CycleRecord) time.Duration { return c.Duration }))))
	r.set("gc.cycle.sync_ms_mean", "ms", mean(durMs(cycles, func(c gengc.CycleRecord) time.Duration {
		return c.Sync1Time + c.Sync2Time + c.Sync3Time
	})))
	acks := make([]float64, len(cycles))
	for i, c := range cycles {
		acks[i] = float64(c.AckRounds)
	}
	r.set("gc.cycle.ack_rounds_mean", "count", mean(acks))

	// gc.trace
	var traceNs, scanned, sweepNs, freed, allocB float64
	for _, c := range cycles {
		traceNs += float64(c.TraceTime)
		scanned += float64(c.ObjectsScanned)
		sweepNs += float64(c.SweepTime)
		freed += float64(c.ObjectsFreed)
	}
	for _, rs := range traced {
		allocB += float64(rs.calls.allocBytes)
	}
	n := float64(len(cycles))
	r.set("gc.trace.objects_per_cycle", "count", ratio(scanned, n))
	r.set("gc.trace.ns_per_object", "ns", ratio(traceNs, scanned))

	// card (partial collections)
	perPartial := func(f func(gengc.CycleRecord) float64) float64 {
		var s float64
		for _, c := range partials {
			s += f(c)
		}
		return ratio(s, float64(len(partials)))
	}
	r.set("card.dirty_per_partial", "count", perPartial(func(c gengc.CycleRecord) float64 { return float64(c.DirtyCards) }))
	r.set("card.scanned_per_partial", "count", perPartial(func(c gengc.CycleRecord) float64 { return float64(c.CardsScanned) }))
	r.set("card.area_kb_per_partial", "KB", perPartial(func(c gengc.CycleRecord) float64 { return float64(c.AreaScanned) / 1024 }))
	r.set("card.intergen_objects_per_partial", "count", perPartial(func(c gengc.CycleRecord) float64 { return float64(c.InterGenScanned) }))
	r.set("card.sync2_ms_mean", "ms", perPartial(func(c gengc.CycleRecord) float64 { return float64(c.Sync2Time) / 1e6 }))

	// gc.sweep
	r.set("gc.sweep.ms_mean", "ms", ratio(sweepNs/1e6, n))
	r.set("gc.sweep.ns_per_freed", "ns", ratio(sweepNs, freed))
	r.set("gc.sweep.freed_per_cycle", "count", ratio(freed, n))

	// gc.pacer
	r.set("gc.pacer.alloc_mb_per_cycle", "MB", ratio(allocB/(1<<20), n))
	r.set("gc.pacer.promotion_rate", "ratio", perT(func(rs *roundStats) float64 { return rs.obs.snap.PromotionRate }))
	r.set("gc.pacer.promoted_mb", "MB", perT(func(rs *roundStats) float64 {
		return float64(rs.obs.snap.Demographics.PromotedBytes) / (1 << 20)
	}))

	if r.o.workload == "server" {
		serverLayers(r, traced)
	}

	// Self time and blocking-path share of each mutator-side layer,
	// scaled from the sampled roots to a whole round.
	var sampled, all float64
	self := map[string]float64{}
	for _, rs := range traced {
		sampled += rs.blk.sampled
		all += rs.blk.all
		for k, v := range rs.blk.self {
			self[k] += v
		}
	}
	layers := []string{"mutator", "heap", "gc.barrier", "gc.safepoint"}
	if r.o.workload == "server" {
		layers = append(layers, "gc.admission", "req.queue", "loadgen")
	}
	for _, layer := range layers {
		share := ratio(self[layer], sampled)
		r.set(layer+".blocking_share", "ratio", share)
		r.set(layer+".self_ms", "ms", share*all/1e6/float64(len(traced)))
	}
	// Collector phases run beside the mutators; they reach the blocking
	// path only through the heap and safe-point spans above.
	phase := map[string]float64{}
	for _, rs := range traced {
		for _, e := range rs.events {
			phase[e.Ev] += float64(e.D)
		}
	}
	perRoundMs := func(ns float64) float64 { return ns / 1e6 / float64(len(traced)) }
	r.set("gc.cycle.self_ms", "ms", perRoundMs(phase["cycle"]-phase["trace"]-phase["sweep"]-phase["cardscan"]))
	r.set("gc.trace.self_ms", "ms", perRoundMs(phase["trace"]))
	r.set("card.self_ms", "ms", perRoundMs(phase["cardscan"]))
	r.set("gc.sweep.self_ms", "ms", perRoundMs(phase["sweep"]))

	// CPU split, failures and the p99 tails, from the untraced rounds.
	var proc, mut, gen, stolen, wall, attempted, failedN float64
	for _, rs := range plain {
		proc += rs.cpuProc.Seconds()
		mut += rs.cpuMut.Seconds()
		gen += rs.cpuGen.Seconds()
		stolen += rs.stolen.Seconds()
		wall += rs.wall.Seconds()
	}
	for _, rs := range rounds {
		attempted += float64(rs.attempts)
		failedN += float64(rs.failed)
	}
	np := float64(len(plain))
	r.setQ("opbatch_p99_us", "us", roundQuantiles(plain, serviceNs)[2], 1e-3)
	r.setQ("req_p99_ms", "ms", roundQuantiles(plain, latNs)[2], 1e-6)
	r.set("cpu.mutator_s", "s", mut/np)
	if r.o.workload == "server" {
		r.set("cpu.loadgen_s", "s", gen/np)
	}
	r.set("cpu.collector_s", "s", (proc-mut-gen)/np)
	r.set("cpu.collector_share", "ratio", ratio(proc-mut-gen, proc))
	r.set("failed_frac", "ratio", ratio(failedN, attempted))
	r.set("bench.steal_frac", "ratio", ratio(stolen, wall))

	cost := func(rs *roundStats) float64 { return float64(rs.cpuProc) / float64(rs.served) }
	r.set("bench.tracing_overhead_frac", "ratio", median(perRound(traced, cost))/median(perRound(plain, cost))-1)
}

// serverLayers reports the layers only the server workload drives: the
// admission controller, the request's queue and service split, and the
// load generator.
func serverLayers(r *report, traced []*roundStats) {
	perT := func(f func(*roundStats) float64) float64 { return meanOver(traced, f) }
	q := quantiles(pooled(traced, func(rs *roundStats) []float64 { return rs.admitNs }), 0.5, 0.99)
	r.setQ("gc.admission.wait_us_p50", "us", q[0], 1e-3)
	r.setQ("gc.admission.wait_us_p99", "us", q[1], 1e-3)
	r.set("gc.admission.shed_queue_full", "count", perT(func(rs *roundStats) float64 { return float64(rs.obs.snap.Admission.ShedQueueFull) }))
	r.set("gc.admission.shed_timeout", "count", perT(func(rs *roundStats) float64 { return float64(rs.obs.snap.Admission.ShedTimeout) }))
	r.set("gc.admission.shed_degraded", "count", perT(func(rs *roundStats) float64 { return float64(rs.obs.snap.Admission.ShedDegraded) }))
	r.set("gc.admission.degraded_enters", "count", perT(func(rs *roundStats) float64 { return float64(rs.obs.snap.Admission.DegradedEnters) }))

	// request split and load generator
	r.setQ("req.queue_ms_p99", "ms", quantiles(pooled(traced, func(rs *roundStats) []float64 { return rs.queueNs }), 0.99)[0], 1e-6)
	r.setQ("req.alloc_ms_p99", "ms", quantiles(pooled(traced, func(rs *roundStats) []float64 { return rs.serviceNs }), 0.99)[0], 1e-6)
	r.set("req.retries", "count", perT(func(rs *roundStats) float64 { return float64(rs.retries) }))
	r.setQ("loadgen.late_ms_p99", "ms", quantiles(pooled(traced, func(rs *roundStats) []float64 { return rs.lateNs }), 0.99)[0], 1e-6)
	r.set("loadgen.offered", "count", perT(func(rs *roundStats) float64 { return float64(rs.offered) }))
}

// meanOver is f's mean over rounds: the per-round figure for counts.
func meanOver(rounds []*roundStats, f func(*roundStats) float64) float64 {
	return mean(perRound(rounds, f))
}

func zeroNaN(v float64) float64 {
	if v != v {
		return 0
	}
	return v
}
