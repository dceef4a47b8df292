package bench

import (
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"gengc"
)

// tinySpec is a one-cell-per-axis matrix that still completes cycles.
func tinySpec(t *testing.T) MatrixSpec {
	t.Helper()
	variants, err := MatrixVariants([]string{"churn", "zipf", "auction"})
	if err != nil {
		t.Fatal(err)
	}
	// Keep one representative variant per profile to stay fast.
	var picked []MatrixVariant
	seen := map[string]bool{}
	for _, v := range variants {
		if !seen[v.Profile] {
			seen[v.Profile] = true
			picked = append(picked, v)
		}
	}
	return MatrixSpec{
		Mutators:   []int{1, 2},
		Workers:    []int{1},
		Shards:     []int{0},
		Barriers:   []gengc.BarrierMode{gengc.BarrierBatched},
		Variants:   picked,
		TotalOps:   30_000,
		Passes:     1,
		YoungBytes: 512 << 10,
	}
}

func TestMatrixVariantsExpansion(t *testing.T) {
	vs, err := MatrixVariants([]string{"churn", "zipf", "auction"})
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 7 {
		t.Fatalf("expected 7 variants (2 churn + 3 zipf + 2 auction), got %d", len(vs))
	}
	if _, err := MatrixVariants([]string{"nope"}); err == nil {
		t.Error("unknown profile not rejected")
	}
}

func TestRunMatrixSmall(t *testing.T) {
	rep, err := RunMatrix(tinySpec(t))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != ReportSchema || rep.SchemaVersion != ReportSchemaVersion || rep.Experiment != "matrix" {
		t.Errorf("envelope stamp missing: %q v%d %q", rep.Schema, rep.SchemaVersion, rep.Experiment)
	}
	if rep.Host.Fingerprint() == "" || rep.Host.GoVersion == "" {
		t.Error("host metadata not stamped")
	}
	if len(rep.Cells) != 6 { // 3 profiles × 2 mutator counts
		t.Fatalf("expected 6 cells, got %d", len(rep.Cells))
	}
	for _, c := range rep.Cells {
		if c.NsPerOp <= 0 {
			t.Errorf("%s: non-positive ns/op %f", c.Key(), c.NsPerOp)
		}
		if c.Cycles == 0 {
			t.Errorf("%s: no collection cycles — metrics say nothing about the collector", c.Key())
		}
		if c.BarrierFlushes == 0 {
			t.Errorf("%s: batched cell recorded no flushes", c.Key())
		}
	}
	MatrixSanity(rep)
	if len(rep.Regressions) != 0 {
		t.Errorf("sanity checks flagged a healthy run: %v", rep.Regressions)
	}
}

// loadMatrixBaseline commits a matrix report with the given cells as
// BENCH_matrix.json in a scratch directory, then loads it back the way
// gcbench does before a run overwrites the file.
func loadMatrixBaseline(t *testing.T, host HostMeta, cells []MatrixCell) (*MatrixReport, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "BENCH_matrix.json")
	base := NewReport[MatrixRun, MatrixCell]("matrix", MatrixRun{})
	base.Host, base.Cells = host, cells
	if err := WriteReport(path, base); err != nil {
		t.Fatal(err)
	}
	return LoadBaseline[MatrixRun, MatrixCell](path, "matrix")
}

// scaledCells copies cells with each ns/op replaced by ns(cell).
func scaledCells(cells []MatrixCell, ns func(MatrixCell) float64) []MatrixCell {
	out := slices.Clone(cells)
	for i := range out {
		out[i].NsPerOp = ns(out[i])
	}
	return out
}

func TestMatrixBaselineHostMismatchRefused(t *testing.T) {
	rep := NewReport[MatrixRun, MatrixCell]("matrix", MatrixRun{})
	rep.Cells = []MatrixCell{{Profile: "churn", Contention: "low", Mutators: 1, Workers: 1, Barrier: "eager", NsPerOp: 100}}
	other := HostMeta{GOOS: "plan9", GOARCH: "mips", GoMaxProcs: 64, NumCPU: 64}
	base, status := loadMatrixBaseline(t, other, scaledCells(rep.Cells, func(MatrixCell) float64 { return 1 }))
	if base != nil || !strings.HasPrefix(status, "refused: host fingerprint mismatch") {
		t.Fatalf("cross-host baseline not refused: %q", status)
	}
	CompareMatrixBaseline(rep, base)
	if len(rep.Regressions) != 0 {
		t.Errorf("refused comparison still produced regressions: %v", rep.Regressions)
	}
}

// shapeCells is a two-group matrix (churn/low and zipf/s=1.2) used by
// the shape-comparison tests. Both groups cost 100 ns/op in this run.
func shapeCells() []MatrixCell {
	return []MatrixCell{
		{Profile: "churn", Contention: "low", Mutators: 1, Workers: 1, Barrier: "eager", NsPerOp: 100},
		{Profile: "churn", Contention: "low", Mutators: 2, Workers: 1, Barrier: "eager", NsPerOp: 100},
		{Profile: "zipf", Contention: "s=1.2", Mutators: 1, Workers: 1, Barrier: "eager", NsPerOp: 100},
		{Profile: "zipf", Contention: "s=1.2", Mutators: 2, Workers: 1, Barrier: "eager", NsPerOp: 100},
	}
}

func TestMatrixBaselineShapeRegressionFlagged(t *testing.T) {
	// In the baseline, churn cost a quarter of zipf; in this run they
	// cost the same — churn's normalized group median grew 2.5x. That
	// shape change must be flagged, and it must name the churn group
	// only.
	rep := &MatrixReport{Host: CurrentHost(), Cells: shapeCells()}
	base, _ := loadMatrixBaseline(t, CurrentHost(), scaledCells(rep.Cells, func(c MatrixCell) float64 {
		if c.Profile == "churn" {
			return 25
		}
		return 100
	}))
	CompareMatrixBaseline(rep, base)
	if !strings.HasPrefix(rep.BaselineComparison, "applied") {
		t.Fatalf("same-host comparison not applied: %q", rep.BaselineComparison)
	}
	if len(rep.Regressions) != 1 || !strings.Contains(rep.Regressions[0], "group churn/low") {
		t.Fatalf("churn shape regression not flagged: %v", rep.Regressions)
	}
}

func TestMatrixBaselineUniformSlowdownNotFlagged(t *testing.T) {
	// Every cell 3x slower than baseline: the shape is identical, so
	// nothing is flagged — a uniform shift is indistinguishable from
	// host load and is deliberately not gated here.
	rep := &MatrixReport{Host: CurrentHost(), Cells: shapeCells()}
	base, _ := loadMatrixBaseline(t, CurrentHost(), scaledCells(rep.Cells, func(MatrixCell) float64 { return 300 }))
	CompareMatrixBaseline(rep, base)
	if !strings.HasPrefix(rep.BaselineComparison, "applied") {
		t.Fatalf("same-host comparison not applied: %q", rep.BaselineComparison)
	}
	if len(rep.Regressions) != 0 {
		t.Errorf("uniform slowdown flagged as shape regression: %v", rep.Regressions)
	}
}

func TestMatrixBaselineTooFewOverlapRefused(t *testing.T) {
	rep := &MatrixReport{Host: CurrentHost(), Cells: shapeCells()[:1]}
	base, _ := loadMatrixBaseline(t, CurrentHost(), shapeCells()[:1])
	CompareMatrixBaseline(rep, base)
	if !strings.HasPrefix(rep.BaselineComparison, "refused") {
		t.Errorf("single-cell overlap not refused: %q", rep.BaselineComparison)
	}
	if len(rep.Regressions) != 0 {
		t.Errorf("refused comparison produced regressions: %v", rep.Regressions)
	}
}

func TestMatrixSanityFlagsSilentBatchedBarrier(t *testing.T) {
	rep := &MatrixReport{Cells: []MatrixCell{
		{Profile: "zipf", Contention: "s=1.2", Mutators: 1, Workers: 1, Barrier: "batched", Cycles: 3, BarrierFlushes: 0},
		{Profile: "zipf", Contention: "s=1.2", Mutators: 2, Workers: 1, Barrier: "eager", Cycles: 0},
	}}
	MatrixSanity(rep)
	if len(rep.Regressions) != 2 {
		t.Fatalf("expected 2 sanity flags (silent batched barrier, zero cycles), got %v", rep.Regressions)
	}
}
