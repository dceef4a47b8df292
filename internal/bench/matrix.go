package bench

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"gengc"
	"gengc/internal/workload"
)

// This file is the contention-matrix harness behind gcbench -experiment
// matrix: one sweep over mutators × collector Workers × AllocShards ×
// barrier mode × workload contention level, producing BENCH_matrix.json
// (schema: BENCHMARKS.md). The sweep exists to answer the
// question the single-experiment harnesses cannot: how the sharded
// allocator, the batched barrier and the card table behave as skewed
// pointer-mutation traffic and thread counts rise together.

// MatrixVariant is one workload leg of the sweep: a named profile at a
// named contention level. NewRun builds the per-thread run function;
// the harness offsets seed per thread and per pass so repeats measure
// the same work without literally replaying one PRNG stream across
// mutators.
type MatrixVariant struct {
	Profile    string
	Contention string
	NewRun     func(seed int64) func(m *gengc.Mutator, ops int) error
}

// MatrixVariants expands profile names ("churn", "zipf", "auction")
// into the matrix's contention-level variants:
//
//   - churn: the uniform store-dominated BarrierChurn loop, contention
//     low = 64 base objects, high = 8 (the fan of stores concentrates
//     on 8 hot cards).
//   - zipf: ZipfChurn at skew s ∈ {0.6, 0.9, 1.2} — the contention
//     axis is the popularity skew itself.
//   - auction: the Auction mix, low = 512 items at s=0.9, high = 64
//     items at s=1.2.
func MatrixVariants(profiles []string) ([]MatrixVariant, error) {
	var out []MatrixVariant
	for _, p := range profiles {
		switch p {
		case "churn":
			for _, v := range []struct {
				label string
				base  int
			}{{"low", 64}, {"high", 8}} {
				churn := workload.BarrierChurn{BaseObjects: v.base}
				out = append(out, MatrixVariant{
					Profile: "churn", Contention: v.label,
					NewRun: func(int64) func(*gengc.Mutator, int) error {
						return churn.RunThread
					},
				})
			}
		case "zipf":
			for _, s := range []float64{0.6, 0.9, 1.2} {
				s := s
				out = append(out, MatrixVariant{
					Profile: "zipf", Contention: fmt.Sprintf("s=%.1f", s),
					NewRun: func(seed int64) func(*gengc.Mutator, int) error {
						return workload.ZipfChurn{Skew: s, Seed: seed}.RunThread
					},
				})
			}
		case "auction":
			for _, v := range []struct {
				label string
				items int
				skew  float64
			}{{"low", 512, 0.9}, {"high", 64, 1.2}} {
				v := v
				out = append(out, MatrixVariant{
					Profile: "auction", Contention: v.label,
					NewRun: func(seed int64) func(*gengc.Mutator, int) error {
						return workload.Auction{Items: v.items, Skew: v.skew, Seed: seed}.RunThread
					},
				})
			}
		default:
			return nil, fmt.Errorf("unknown matrix profile %q (want churn, zipf or auction)", p)
		}
	}
	return out, nil
}

// MatrixSpec parameterizes one sweep.
type MatrixSpec struct {
	Mutators []int               // mutator thread counts
	Workers  []int               // collector worker counts (WithWorkers)
	Shards   []int               // central shard counts (WithAllocShards; 0 = per-class default)
	Barriers []gengc.BarrierMode // barrier modes (WithBarrier)
	Variants []MatrixVariant     // workload × contention legs

	// TotalOps is the per-run operation budget, split evenly across the
	// cell's mutators so every cell performs the same total work.
	TotalOps int

	// Passes is how many times the whole matrix is measured. Passes are
	// interleaved — pass 2 starts only after pass 1 has visited every
	// cell — so slow host drift (thermal, page cache, background load)
	// spreads across all cells instead of landing on whichever cells
	// were measured last; each cell reports the per-metric median of
	// its passes.
	Passes int

	Seed       int64
	YoungBytes int

	// Progress receives one line per completed cell pass (nil = quiet).
	Progress func(string)
}

func (s MatrixSpec) withDefaults() MatrixSpec {
	if s.TotalOps == 0 {
		// Enough for the least allocation-intensive variant (the
		// auction mix) to cross the young-generation trigger several
		// times at the default YoungBytes.
		s.TotalOps = 60_000
	}
	if s.Passes == 0 {
		s.Passes = 2
	}
	if s.Seed == 0 {
		s.Seed = 20000620 // PLDI 2000
	}
	if s.YoungBytes == 0 {
		s.YoungBytes = 1 << 20
	}
	return s
}

func (s MatrixSpec) validate() error {
	if len(s.Mutators) == 0 || len(s.Workers) == 0 || len(s.Shards) == 0 ||
		len(s.Barriers) == 0 || len(s.Variants) == 0 {
		return fmt.Errorf("matrix: every axis needs at least one value")
	}
	for _, m := range s.Mutators {
		if m <= 0 {
			return fmt.Errorf("matrix: bad mutator count %d", m)
		}
	}
	return nil
}

// matrixHeapBytes sizes every cell's heap.
const matrixHeapBytes = 32 << 20

// MatrixPreset is the sweep gcbench -experiment matrix runs: mutators
// {1,2,4} × workers {1,2} × shards {1, per-class} × both barriers over
// every contention variant of the churn, Zipf and auction profiles. The
// smoke preset keeps ≥2 values on every axis but only the
// high-contention variant of each profile, one pass and a small op
// budget, so it completes in seconds; the sanity checks (and, against a
// same-host baseline, the shape gate) still apply.
func MatrixPreset(smoke bool) (MatrixSpec, error) {
	variants, err := MatrixVariants([]string{"churn", "zipf", "auction"})
	if err != nil {
		return MatrixSpec{}, err
	}
	spec := MatrixSpec{
		Mutators: []int{1, 2, 4},
		Workers:  []int{1, 2},
		Shards:   []int{1, 0},
		Barriers: []gengc.BarrierMode{gengc.BarrierEager, gengc.BarrierBatched},
		Variants: variants,
	}
	if smoke {
		spec.Mutators = []int{1, 2}
		spec.Variants = slices.DeleteFunc(variants, func(v MatrixVariant) bool {
			return v.Contention != "high" && v.Contention != "s=1.2"
		})
		spec.TotalOps, spec.Passes, spec.YoungBytes = 12_000, 1, 256<<10
	}
	return spec, nil
}

// MatrixCell is one measured configuration: the cell coordinates, the
// throughput and pause/cycle distributions, and the contention counters
// read from Runtime.Snapshot. All metrics are per-pass medians.
type MatrixCell struct {
	Profile    string `json:"profile"`
	Contention string `json:"contention"`
	Mutators   int    `json:"mutators"`
	Workers    int    `json:"workers"`
	Shards     int    `json:"shards"` // 0 = per-class default
	Barrier    string `json:"barrier"`

	NsPerOp float64 `json:"ns_per_op"`

	// Fleet-wide mutator pause quantiles (the on-the-fly property under
	// load), in nanoseconds.
	PauseP50Ns  int64 `json:"pause_p50_ns"`
	PauseP99Ns  int64 `json:"pause_p99_ns"`
	PauseP999Ns int64 `json:"pause_p999_ns"`

	// Collection-cycle behavior: completed cycles per run and the
	// mean/max clear-to-sweep-end elapsed time.
	Cycles      int64 `json:"cycles"`
	CycleMeanNs int64 `json:"cycle_mean_ns"`
	CycleMaxNs  int64 `json:"cycle_max_ns"`

	// Contention counters (run totals): contended allocator lock
	// acquisitions across tiers, batched-barrier buffer flushes, and
	// same-card dedup hits (both zero under the eager barrier).
	AllocContended int64 `json:"alloc_contended"`
	BarrierFlushes int64 `json:"barrier_flushes"`
	CardDedupHits  int64 `json:"card_dedup_hits"`

	Passes int `json:"passes"`
}

// Key is the cell's identity in baseline maps:
// "profile/contention/m<mutators>/w<workers>/s<shards>/<barrier>".
func (c MatrixCell) Key() string {
	return fmt.Sprintf("%s/%s/m%d/w%d/s%d/%s",
		c.Profile, c.Contention, c.Mutators, c.Workers, c.Shards, c.Barrier)
}

// MatrixRun is the matrix report's run-wide parameters.
type MatrixRun struct {
	TotalOps   int   `json:"total_ops_per_run"`
	Passes     int   `json:"passes"`
	Seed       int64 `json:"seed"`
	HeapBytes  int   `json:"heap_bytes"`
	YoungBytes int   `json:"young_bytes"`
}

// MatrixReport is BENCH_matrix.json; see BENCHMARKS.md for the cell
// fields and the baseline-matching rules.
type MatrixReport = Report[MatrixRun, MatrixCell]

// oneRun measures a single cell pass: a fresh runtime, TotalOps split
// across the mutator threads, snapshot and cycle records on shutdown.
type oneRun struct {
	nsPerOp                   float64
	p50, p99, p999            int64
	cycles                    int64
	cycleMean, cycleMax       int64
	contended, flushes, dedup int64
}

func (s MatrixSpec) runCell(v MatrixVariant, muts, workers, shards int, barrier gengc.BarrierMode, pass int) (oneRun, error) {
	rt, err := gengc.New(
		gengc.WithMode(gengc.Generational),
		gengc.WithHeapBytes(matrixHeapBytes),
		gengc.WithYoungBytes(s.YoungBytes),
		gengc.WithWorkers(workers),
		gengc.WithAllocShards(shards),
		gengc.WithBarrier(barrier),
	)
	if err != nil {
		return oneRun{}, err
	}
	defer rt.Close()

	per := s.TotalOps / muts
	if per == 0 {
		per = 1
	}
	var wg sync.WaitGroup
	errs := make(chan error, muts)
	start := time.Now()
	for id := 0; id < muts; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			m := rt.NewMutator()
			defer m.Detach()
			seed := s.Seed + int64(id)*7919 + int64(pass)*104729
			if err := v.NewRun(seed)(m, per); err != nil {
				errs <- err
			}
		}(id)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errs)
	for err := range errs {
		return oneRun{}, err
	}
	rt.Close()

	snap := rt.Snapshot()
	r := oneRun{
		nsPerOp:   float64(elapsed.Nanoseconds()) / float64(per*muts),
		p50:       snap.Fleet.P50.Nanoseconds(),
		p99:       snap.Fleet.P99.Nanoseconds(),
		p999:      snap.Fleet.P999.Nanoseconds(),
		contended: snap.Alloc.Contended(),
		flushes:   snap.Barrier.Flushes,
		dedup:     snap.Barrier.CardDedupHits,
	}
	var sum, max int64
	recs := rt.Cycles()
	for _, c := range recs {
		d := c.Duration.Nanoseconds()
		sum += d
		if d > max {
			max = d
		}
	}
	r.cycles = int64(len(recs))
	if len(recs) > 0 {
		r.cycleMean = sum / int64(len(recs))
	}
	r.cycleMax = max
	return r, nil
}

// RunMatrix executes the sweep and returns the report (without baseline
// comparison — callers apply CompareMatrixBaseline and MatrixSanity).
// The host's Go runtime GC is disabled for the duration, as in every
// other experiment in this repo: its pauses would land in the
// measurement.
func RunMatrix(spec MatrixSpec) (*MatrixReport, error) {
	spec = spec.withDefaults()
	if err := spec.validate(); err != nil {
		return nil, err
	}
	prevGC := debug.SetGCPercent(-1)
	defer func() {
		debug.SetGCPercent(prevGC)
		runtime.GC()
	}()

	type coords struct {
		v                     MatrixVariant
		muts, workers, shards int
		barrier               gengc.BarrierMode
	}
	var cells []coords
	for _, v := range spec.Variants {
		for _, m := range spec.Mutators {
			for _, w := range spec.Workers {
				for _, sh := range spec.Shards {
					for _, b := range spec.Barriers {
						cells = append(cells, coords{v, m, w, sh, b})
					}
				}
			}
		}
	}
	runs := make([][]oneRun, len(cells))
	for pass := 0; pass < spec.Passes; pass++ {
		for i, c := range cells {
			r, err := spec.runCell(c.v, c.muts, c.workers, c.shards, c.barrier, pass)
			if err != nil {
				return nil, fmt.Errorf("matrix cell %s/%s m%d w%d s%d %v pass %d: %w",
					c.v.Profile, c.v.Contention, c.muts, c.workers, c.shards, c.barrier, pass, err)
			}
			runs[i] = append(runs[i], r)
			if spec.Progress != nil {
				spec.Progress(fmt.Sprintf("pass %d/%d %-8s %-6s m%d w%d s%d %-7v %8.1f ns/op",
					pass+1, spec.Passes, c.v.Profile, c.v.Contention,
					c.muts, c.workers, c.shards, c.barrier, r.nsPerOp))
			}
		}
	}

	rep := NewReport[MatrixRun, MatrixCell]("matrix", MatrixRun{
		TotalOps:   spec.TotalOps,
		Passes:     spec.Passes,
		Seed:       spec.Seed,
		HeapBytes:  matrixHeapBytes,
		YoungBytes: spec.YoungBytes,
	})
	for i, c := range cells {
		var ns []float64
		var p50, p99, p999, cyc, cmean, cmax, cont, fl, dd []int64
		for _, r := range runs[i] {
			ns = append(ns, r.nsPerOp)
			p50 = append(p50, r.p50)
			p99 = append(p99, r.p99)
			p999 = append(p999, r.p999)
			cyc = append(cyc, r.cycles)
			cmean = append(cmean, r.cycleMean)
			cmax = append(cmax, r.cycleMax)
			cont = append(cont, r.contended)
			fl = append(fl, r.flushes)
			dd = append(dd, r.dedup)
		}
		rep.Cells = append(rep.Cells, MatrixCell{
			Profile:        c.v.Profile,
			Contention:     c.v.Contention,
			Mutators:       c.muts,
			Workers:        c.workers,
			Shards:         c.shards,
			Barrier:        c.barrier.String(),
			NsPerOp:        Median(ns),
			PauseP50Ns:     Median(p50),
			PauseP99Ns:     Median(p99),
			PauseP999Ns:    Median(p999),
			Cycles:         Median(cyc),
			CycleMeanNs:    Median(cmean),
			CycleMaxNs:     Median(cmax),
			AllocContended: Median(cont),
			BarrierFlushes: Median(fl),
			CardDedupHits:  Median(dd),
			Passes:         spec.Passes,
		})
	}
	return rep, nil
}

// groupOfKey extracts the profile/contention group from a cell key
// ("churn/high/m2/w1/s0/batched" → "churn/high").
func groupOfKey(key string) string {
	parts := strings.SplitN(key, "/", 3)
	if len(parts) < 3 {
		return key
	}
	return parts[0] + "/" + parts[1]
}

// MatrixShapeTolerancePct is how far a profile/contention group's
// normalized median ns/op may grow past the baseline's before the shape
// gate flags it.
const MatrixShapeTolerancePct = 50

// CompareMatrixBaseline checks the *shape* of rep's matrix against base,
// the committed report LoadBaseline accepted for this host (nil when it
// refused or found none: then there is nothing to compare).
//
// Even on the matching host, absolute ns/op swings run to run with
// whatever else the machine is doing (measured on a 1-CPU container:
// ~50% median whole-run drift between back-to-back full sweeps). What
// *is* stable is the shape of the matrix — each cell's ns/op divided by
// the run's median ns/op (measured drift of the per-group medians of
// that ratio: ≤ ~30%). So both sides are normalized by their own median
// over the overlapping cells, aggregated to profile/contention group
// medians, and a regression is flagged per group whose normalized
// median grew by more than MatrixShapeTolerancePct. A uniform
// whole-matrix slowdown is invisible to this gate by construction — it
// is indistinguishable from host load; the absolute per-cell numbers
// stay in both reports for human reading, and the paired
// single-configuration experiments gate absolute cost.
func CompareMatrixBaseline(rep, base *MatrixReport) {
	if base == nil {
		return
	}
	baseNs := map[string]float64{}
	for _, c := range base.Cells {
		baseNs[c.Key()] = c.NsPerOp
	}
	// Restrict both sides to the overlapping cells, so the smoke sweep
	// compares against the matching slice of the full baseline with
	// both medians computed over the same cell set.
	var keys []string
	cur := map[string]float64{}
	for _, c := range rep.Cells {
		if b, ok := baseNs[c.Key()]; ok && b > 0 && c.NsPerOp > 0 {
			keys = append(keys, c.Key())
			cur[c.Key()] = c.NsPerOp
		}
	}
	if len(keys) < 2 {
		rep.BaselineComparison = fmt.Sprintf(
			"refused: only %d cells overlap the baseline — shape comparison needs at least 2", len(keys))
		return
	}
	curAll := make([]float64, 0, len(keys))
	baseAll := make([]float64, 0, len(keys))
	for _, k := range keys {
		curAll = append(curAll, cur[k])
		baseAll = append(baseAll, baseNs[k])
	}
	curMed, baseMed := Median(curAll), Median(baseAll)
	curG := map[string][]float64{}
	baseG := map[string][]float64{}
	for _, k := range keys {
		g := groupOfKey(k)
		curG[g] = append(curG[g], cur[k]/curMed)
		baseG[g] = append(baseG[g], baseNs[k]/baseMed)
	}
	groups := make([]string, 0, len(curG))
	for g := range curG {
		groups = append(groups, g)
	}
	sort.Strings(groups)
	rep.BaselineComparison = fmt.Sprintf(
		"applied (shape-normalized, %d groups over %d cells) against the report generated %s",
		len(groups), len(keys), base.Generated)
	for _, g := range groups {
		cm, bm := Median(curG[g]), Median(baseG[g])
		if bm <= 0 {
			continue
		}
		if cm > bm*(1+MatrixShapeTolerancePct/100.0) {
			rep.Regressions = append(rep.Regressions, fmt.Sprintf(
				"group %s: normalized median ns/op %.3f vs baseline %.3f (+%.1f%%, tolerance %d%%)",
				g, cm, bm, (cm/bm-1)*100, MatrixShapeTolerancePct))
		}
	}
}

// MatrixSanity appends host-independent structural checks — the ones
// that still gate CI when the baseline comparison is refused: every
// batched cell must have recorded buffer flushes (a silent barrier is an
// observability regression, not a fast one), and every cell must have
// completed at least one collection cycle (a cell that never collects
// measured nothing about the collector).
func MatrixSanity(rep *MatrixReport) {
	for _, c := range rep.Cells {
		if c.Barrier == "batched" && c.BarrierFlushes == 0 {
			rep.Regressions = append(rep.Regressions,
				fmt.Sprintf("%s: batched barrier recorded zero flushes", c.Key()))
		}
		if c.Cycles == 0 {
			rep.Regressions = append(rep.Regressions,
				fmt.Sprintf("%s: run completed without a single collection cycle (ops budget too small)", c.Key()))
		}
	}
}
