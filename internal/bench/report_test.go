package bench

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// commit writes a one-cell report for experiment, as produced on host,
// to dir/BENCH_<experiment>.json and returns its path.
func commit(t *testing.T, dir, experiment string, host HostMeta) string {
	t.Helper()
	rep := NewReport[string, float64](experiment, "params")
	rep.Host, rep.Cells = host, []float64{42}
	path := filepath.Join(dir, "BENCH_"+experiment+".json")
	if err := WriteReport(path, rep); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadBaseline(t *testing.T) {
	dir := t.TempDir()
	path := commit(t, dir, "barrier", CurrentHost())

	base, status := LoadBaseline[string, float64](path, "barrier")
	if base == nil || !strings.HasPrefix(status, "applied") {
		t.Fatalf("same experiment and fingerprint not applied: %q", status)
	}
	if base.Run != "params" || len(base.Cells) != 1 || base.Cells[0] != 42 {
		t.Errorf("baseline did not round-trip: %+v", base)
	}

	for _, tc := range []struct {
		name, experiment, want string
		path                   func() string
	}{
		{"other experiment", "matrix", "refused: ", func() string { return path }},
		{"fingerprint mismatch", "barrier", "refused: host fingerprint mismatch", func() string {
			other := CurrentHost()
			other.NumCPU++
			return commit(t, t.TempDir(), "barrier", other)
		}},
		{"schema version", "barrier", "refused: ", func() string {
			old := filepath.Join(t.TempDir(), "BENCH_barrier.json")
			data, _ := os.ReadFile(path)
			data = bytes.Replace(data, []byte(`"schema_version": 2`), []byte(`"schema_version": 1`), 1)
			if err := os.WriteFile(old, data, 0o644); err != nil {
				t.Fatal(err)
			}
			return old
		}},
		{"pre-envelope report", "alloc", "refused: ", func() string {
			old := filepath.Join(t.TempDir(), "BENCH_alloc.json")
			if err := os.WriteFile(old, []byte(`{"gomaxprocs": 1, "runs": []}`), 0o644); err != nil {
				t.Fatal(err)
			}
			return old
		}},
		{"missing file", "barrier", "none: ", func() string { return filepath.Join(dir, "BENCH_none.json") }},
	} {
		base, status := LoadBaseline[string, float64](tc.path(), tc.experiment)
		if base != nil || !strings.HasPrefix(status, tc.want) {
			t.Errorf("%s: got base=%v status %q, want nil and %q...", tc.name, base != nil, status, tc.want)
		}
	}
}

func TestWriteReportAtomic(t *testing.T) {
	dir := t.TempDir()
	path := commit(t, dir, "alloc", CurrentHost())
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	bad := NewReport[string, float64]("alloc", "")
	bad.Cells = []float64{math.NaN()} // encoding/json rejects NaN
	if err := WriteReport(path, bad); err == nil {
		t.Fatal("a NaN cell encoded without error")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Error("failed write changed the previous report")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("failed write left files behind: %v", entries)
	}
}

func TestMedian(t *testing.T) {
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := Median([]int64{4, 1, 3, 2}); got != 2 {
		t.Errorf("even int64 median = %v, want 2 (mean of 2 and 3, truncated)", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
}
