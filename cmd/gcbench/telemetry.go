package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"gengc"
	"gengc/internal/bench"
	"gengc/internal/workload"
)

// telemetryOverheadLimitPct is the acceptance bound on what arming the
// full telemetry surface (tracer + flight recorder + pause SLO) may cost
// the churn workload: the recorder taps the existing per-producer ring
// path, so the hot loops should pay almost nothing.
const telemetryOverheadLimitPct = 3.0

// telemetryCell is one mutator count of the telemetry overhead
// comparison: paired medians with the surface off and armed.
type telemetryCell struct {
	Mutators    int     `json:"mutators"`
	OffNsPerOp  float64 `json:"off_ns_per_op"`
	OnNsPerOp   float64 `json:"on_ns_per_op"`
	OverheadPct float64 `json:"overhead_pct"`
	Iters       int     `json:"iterations"`
}

// scrapeAgreement records the scrape-vs-snapshot cross-check: the same
// facts read through the Prometheus exposition and through Snapshot().
type scrapeAgreement struct {
	Cycles         int64   `json:"cycles"`
	ScrapedCycles  int64   `json:"scraped_cycles"`
	Promoted       int64   `json:"promoted_bytes"`
	ScrapedPromote int64   `json:"scraped_promoted_bytes"`
	P99Seconds     float64 `json:"p99_seconds"`
	ScrapedP99     float64 `json:"scraped_p99_seconds"`
	Agrees         bool    `json:"agrees"`
}

// telemetryRun is the telemetry report's run-wide record: the measured
// loop and the scrape-vs-snapshot cross-check.
type telemetryRun struct {
	Workload string          `json:"workload"`
	Scrape   scrapeAgreement `json:"scrape_agreement"`
}

type telemetryReport = bench.Report[telemetryRun, telemetryCell]

// runTelemetryChurn times one fixed-work churn run (total ops split
// across muts mutators) with the telemetry surface fully armed or
// fully off, returning ns/op. Both configurations keep pause
// histograms on (the production default) so the measured delta is the
// tracer + flight recorder + SLO check alone. Fixed work (rather than
// testing.Benchmark's duration-targeted calibration) keeps repeat runs
// directly comparable so the caller can pair them.
func runTelemetryChurn(muts, total int, armed bool) (float64, error) {
	churn := workload.BarrierChurn{}
	opts := []gengc.Option{
		gengc.WithMode(gengc.Generational),
		gengc.WithHeapBytes(64 << 20),
		gengc.WithYoungBytes(2 << 20),
	}
	if armed {
		opts = append(opts,
			gengc.WithFlightRecorder(256),
			gengc.WithPauseSLO(time.Second))
	}
	rt, err := gengc.New(opts...)
	if err != nil {
		return 0, err
	}
	defer rt.Close()
	per := total / muts
	start := time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, muts)
	for id := 0; id < muts; id++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := rt.NewMutator()
			defer m.Detach()
			if err := churn.RunThread(m, per); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errs)
	for err := range errs {
		return 0, err
	}
	return float64(elapsed.Nanoseconds()) / float64(per*muts), nil
}

// scrapeMetric extracts the value of one sample line (exact name or
// name{q="0.99"} form) from a Prometheus text exposition.
func scrapeMetric(body, name string) (float64, bool) {
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if i := strings.IndexByte(rest, ' '); i >= 0 && (i == 0 || rest[0] == '{') {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest[i+1:]), 64)
			if err == nil {
				return v, true
			}
		}
	}
	return 0, false
}

// checkScrapeAgreement runs a churn burst on a telemetry-armed runtime,
// scrapes /metrics mid-flight (the handler must be serveable while
// mutators allocate), then quiesces and compares the final scrape
// against Snapshot() value for value.
func checkScrapeAgreement(muts, ops int) (scrapeAgreement, error) {
	var ag scrapeAgreement
	rt, err := gengc.New(
		gengc.WithMode(gengc.Generational),
		gengc.WithHeapBytes(64<<20),
		gengc.WithYoungBytes(2<<20),
		gengc.WithFlightRecorder(256),
	)
	if err != nil {
		return ag, err
	}
	defer rt.Close()
	handler := rt.MetricsHandler()
	scrape := func() string {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		return rec.Body.String()
	}

	churn := workload.BarrierChurn{}
	var wg sync.WaitGroup
	errs := make(chan error, muts)
	for id := 0; id < muts; id++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := rt.NewMutator()
			defer m.Detach()
			if err := churn.RunThread(m, ops); err != nil {
				errs <- err
			}
		}()
	}
	// Scrape while the churn runs: the values race the workload and are
	// discarded, but the handler must not trip the race detector or
	// block a cycle.
	for i := 0; i < 8; i++ {
		_ = scrape()
		time.Sleep(time.Millisecond)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return ag, err
	}

	// Quiescent: every mutator detached, no cycle in flight after a
	// final settling collection. Scrape and snapshot must now agree
	// exactly.
	rt.Collect(true)
	body := scrape()
	s := rt.Snapshot()
	cycles, _ := scrapeMetric(body, "gengc_cycles_total")
	promoted, _ := scrapeMetric(body, "gengc_promoted_bytes_total")
	p99, _ := scrapeMetric(body, `gengc_pause_quantile_seconds{q="0.99"}`)
	ag.Cycles, ag.ScrapedCycles = s.Cycles, int64(cycles)
	ag.Promoted, ag.ScrapedPromote = s.Demographics.PromotedBytes, int64(promoted)
	ag.P99Seconds, ag.ScrapedP99 = s.Fleet.P99.Seconds(), p99
	ag.Agrees = ag.Cycles == ag.ScrapedCycles &&
		ag.Promoted == ag.ScrapedPromote &&
		ag.P99Seconds == ag.ScrapedP99
	return ag, nil
}

// telemetryExperiment measures what the armed telemetry surface costs
// the churn workload, cross-checks the Prometheus exposition against
// Snapshot, and gates both with telemetryGate. Both checks pair two
// configurations within this run, so the committed report is not read
// as a baseline.
func telemetryExperiment(w io.Writer) (*telemetryReport, error) {
	prevGC := debug.SetGCPercent(-1)
	defer func() {
		debug.SetGCPercent(prevGC)
		runtime.GC()
	}()

	rep := bench.NewReport[telemetryRun, telemetryCell]("telemetry", telemetryRun{
		Workload: "workload.BarrierChurn: 1 alloc + 8 pointer stores + 1 safepoint per op, " +
			"generational mode, 64MB heap, 2MB young; on = flight recorder(256) + pause SLO",
	})
	rep.BaselineComparison = "none: both gates compare paired legs within this run"
	fmt.Fprintf(w, "Telemetry overhead (ns/op, BarrierChurn; on = tracer + flight recorder + SLO)\n")
	fmt.Fprintf(w, "%-9s %12s %12s %10s\n", "mutators", "off", "on", "overhead")
	const totalOps = 2_000_000
	for _, muts := range []int{1, 4} {
		// Paired back-to-back runs with the order alternating pair to
		// pair, compared median to median: the armed surface adds no
		// per-operation work on this workload (events are
		// cycle-frequency), so the measured delta is dominated by
		// scheduler/page-cache drift — alternation keeps that drift
		// from systematically landing on one configuration, and the
		// medians shed the outlier runs. A warmup run absorbs the
		// first-touch cost.
		const pairs = 5
		if _, err := runTelemetryChurn(muts, totalOps, false); err != nil {
			return nil, err
		}
		offs := make([]float64, 0, pairs)
		ons := make([]float64, 0, pairs)
		for i := 0; i < pairs; i++ {
			for _, armed := range []bool{i%2 == 0, i%2 != 0} {
				ns, err := runTelemetryChurn(muts, totalOps, armed)
				if err != nil {
					return nil, err
				}
				if armed {
					ons = append(ons, ns)
				} else {
					offs = append(offs, ns)
				}
			}
		}
		c := telemetryCell{Mutators: muts, OffNsPerOp: bench.Median(offs), OnNsPerOp: bench.Median(ons), Iters: totalOps}
		c.OverheadPct = (c.OnNsPerOp/c.OffNsPerOp - 1) * 100
		rep.Cells = append(rep.Cells, c)
		fmt.Fprintf(w, "%-9d %12.1f %12.1f %9.1f%%\n", muts, c.OffNsPerOp, c.OnNsPerOp, c.OverheadPct)
	}

	ag, err := checkScrapeAgreement(4, 50_000)
	if err != nil {
		return nil, err
	}
	rep.Run.Scrape = ag
	fmt.Fprintf(w, "scrape agreement: cycles %d/%d promoted %d/%d p99 %gs/%gs -> %v\n\n",
		ag.ScrapedCycles, ag.Cycles, ag.ScrapedPromote, ag.Promoted,
		ag.ScrapedP99, ag.P99Seconds, ag.Agrees)
	rep.Regressions = telemetryGate(rep.Cells, ag)
	return rep, nil
}

// telemetryGate flags armed overhead beyond the acceptance bound at any
// mutator count, and a quiescent scrape that disagrees with Snapshot.
func telemetryGate(cells []telemetryCell, ag scrapeAgreement) []string {
	var bad []string
	for _, c := range cells {
		if c.OverheadPct > telemetryOverheadLimitPct {
			bad = append(bad, fmt.Sprintf(
				"telemetry overhead at %d mutators: %.1f%% > %.1f%% bound (off %.1f ns/op, on %.1f)",
				c.Mutators, c.OverheadPct, telemetryOverheadLimitPct, c.OffNsPerOp, c.OnNsPerOp))
		}
	}
	if !ag.Agrees {
		bad = append(bad, "quiescent /metrics scrape disagrees with Runtime.Snapshot()")
	}
	return bad
}
