package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

// This file defines the one envelope every BENCH_*.json report carries
// (schema: BENCHMARKS.md), the atomic writer, and the loader that turns
// the committed report of an experiment into the next run's baseline.

// ReportSchema identifies the BENCH_*.json envelope; bump
// ReportSchemaVersion on any incompatible field change and record the
// change in BENCHMARKS.md.
const (
	ReportSchema        = "gengc/bench"
	ReportSchemaVersion = 2
)

// HostMeta is the host-metadata stanza stamped into every report.
// Fingerprint determines baseline comparability: ns/op numbers from
// hosts with different parallelism or architecture are not comparable,
// so baselines are refused across fingerprints.
type HostMeta struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GoMaxProcs int    `json:"gomaxprocs"`
	NumCPU     int    `json:"numcpu"`
}

// CurrentHost captures the running host's metadata.
func CurrentHost() HostMeta {
	return HostMeta{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
}

// Fingerprint is the baseline-matching key: platform and parallelism,
// but not the Go toolchain patch level (minor toolchain drift moves
// ns/op far less than the regression tolerances; the full go version is
// still recorded in the report for the reader).
func (h HostMeta) Fingerprint() string {
	return fmt.Sprintf("%s/%s gomaxprocs=%d numcpu=%d", h.GOOS, h.GOARCH, h.GoMaxProcs, h.NumCPU)
}

// Report is the envelope of every BENCH_*.json file: identification,
// the host stanza, the outcome of the baseline comparison, prose
// findings and flagged regressions, then the experiment's own run-wide
// parameters (R) and measured cells (C).
type Report[R, C any] struct {
	Schema        string   `json:"schema"`
	SchemaVersion int      `json:"schema_version"`
	Experiment    string   `json:"experiment"`
	Generated     string   `json:"generated"`
	Host          HostMeta `json:"host"`

	// BaselineComparison records whether this run was compared against
	// the committed report of the same experiment — "applied ...",
	// "refused: <why>" or "none: <why>". A refused comparison is not a
	// failure: it means the numbers must not be read against the
	// baseline, per the cross-host rule.
	BaselineComparison string `json:"baseline_comparison"`

	Findings []string `json:"findings"`

	// Regressions lists everything a gate flagged; non-empty ⇒ gcbench
	// exits 2.
	Regressions []string `json:"regressions"`

	Run   R   `json:"run"`
	Cells []C `json:"cells"`
}

// NewReport starts the report of one run of experiment on this host.
func NewReport[R, C any](experiment string, run R) *Report[R, C] {
	return &Report[R, C]{
		Schema:        ReportSchema,
		SchemaVersion: ReportSchemaVersion,
		Experiment:    experiment,
		Generated:     time.Now().UTC().Format(time.RFC3339),
		Host:          CurrentHost(),
		Run:           run,
	}
}

// WriteReport writes rep to path atomically: the JSON goes to a
// temporary file in the same directory that replaces path only once it
// is complete, so a run that fails to encode or write leaves the
// previous report — the baseline the run just read — byte for byte in
// place.
func WriteReport[R, C any](path string, rep *Report[R, C]) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return fmt.Errorf("encode %s: %w", path, err)
	}
	f, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	// Cleans up on every failure path; after the rename the name is
	// gone and the error is moot.
	defer os.Remove(f.Name())
	_, err = f.Write(append(data, '\n'))
	if err == nil {
		err = f.Chmod(0o644)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return os.Rename(f.Name(), path)
}

// LoadBaseline reads the report committed at path as the baseline of a
// new run of experiment. It returns the report only when the file
// carries this envelope version, the same experiment and this host's
// fingerprint; status is the new report's baseline_comparison: "applied
// ...", "none: ..." when there is no file, or "refused: <why>".
func LoadBaseline[R, C any](path, experiment string) (base *Report[R, C], status string) {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Sprintf("none: no committed %s", path)
	}
	if err != nil {
		return nil, fmt.Sprintf("refused: %v", err)
	}
	var rep Report[R, C]
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Sprintf("refused: %s is not a %s v%d report (%v)",
			path, ReportSchema, ReportSchemaVersion, err)
	}
	switch fp := CurrentHost().Fingerprint(); {
	case rep.Schema != ReportSchema || rep.SchemaVersion != ReportSchemaVersion:
		return nil, fmt.Sprintf("refused: %s is schema %q v%d, want %q v%d",
			path, rep.Schema, rep.SchemaVersion, ReportSchema, ReportSchemaVersion)
	case rep.Experiment != experiment:
		return nil, fmt.Sprintf("refused: %s holds experiment %q, not %q", path, rep.Experiment, experiment)
	case rep.Host.Fingerprint() != fp:
		return nil, fmt.Sprintf(
			"refused: host fingerprint mismatch (run %q vs baseline %q) — ns/op is not comparable across hosts",
			fp, rep.Host.Fingerprint())
	}
	return &rep, fmt.Sprintf("applied: %s generated %s", path, rep.Generated)
}

// Median returns the median of xs, which it sorts in place; for an even
// count it is the mean of the two middle values.
func Median[T int64 | float64](xs []T) T {
	slices.Sort(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
