package main

import (
	"path/filepath"
	"strings"
	"testing"

	"gengc/internal/bench"
)

// barrierCells is one mutator count's loop cells at the given ns/op.
func barrierCells(eager, batched float64) []barrierCell {
	return []barrierCell{
		{Mutators: 4, Barrier: "eager", API: "loop", NsPerOp: eager},
		{Mutators: 4, Barrier: "batched", API: "loop", NsPerOp: batched},
	}
}

func TestBarrierGate(t *testing.T) {
	// The committed baseline: a report from this host, loaded back the
	// way runReport loads BENCH_barrier.json.
	path := filepath.Join(t.TempDir(), "BENCH_barrier.json")
	committed := bench.NewReport[workloadRun, barrierCell]("barrier", workloadRun{})
	committed.Cells = barrierCells(100, 100)
	if err := bench.WriteReport(path, committed); err != nil {
		t.Fatal(err)
	}
	base, status := bench.LoadBaseline[workloadRun, barrierCell](path, "barrier")
	if base == nil {
		t.Fatalf("same-host baseline not applied: %q", status)
	}

	for _, tc := range []struct {
		name           string
		eager, batched float64
		base           []barrierCell
		want           string // "" = clean
	}{
		{"within bounds", 109, 114, base.Cells, ""},
		{"eager/loop past 10% of the baseline", 111, 111, base.Cells, "eager/loop at 4 mutators: 111.0 ns/op vs baseline 100.0"},
		{"no baseline: only the same-run check", 150, 150, nil, ""},
		{"batched/loop past 5% of eager/loop", 100, 106, nil, "batched/loop at 4 mutators: 106.0 ns/op vs eager 100.0"},
	} {
		bad := barrierGate(barrierCells(tc.eager, tc.batched), tc.base)
		if tc.want == "" && len(bad) != 0 || tc.want != "" && (len(bad) != 1 || !strings.Contains(bad[0], tc.want)) {
			t.Errorf("%s: gate returned %v, want %q", tc.name, bad, tc.want)
		}
	}
}

func TestTelemetryGate(t *testing.T) {
	ok := scrapeAgreement{Agrees: true}
	cells := []telemetryCell{{Mutators: 1, OverheadPct: -4}, {Mutators: 4, OverheadPct: 2.9}}
	if bad := telemetryGate(cells, ok); len(bad) != 0 {
		t.Fatalf("clean run flagged: %v", bad)
	}
	cells[1].OverheadPct = 3.5
	if bad := telemetryGate(cells, ok); len(bad) != 1 || !strings.Contains(bad[0], "at 4 mutators: 3.5%") {
		t.Errorf("overhead past the bound not flagged: %v", bad)
	}
	cells[1].OverheadPct = 0
	if bad := telemetryGate(cells, scrapeAgreement{}); len(bad) != 1 || !strings.Contains(bad[0], "scrape disagrees") {
		t.Errorf("scrape disagreement not flagged: %v", bad)
	}
}
