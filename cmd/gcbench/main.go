// Command gcbench is the repo's one experiment driver. The paper
// experiments regenerate the tables and figures of its evaluation (§8,
// Figures 7–23): each runs the synthetic benchmark profiles under the
// collector configurations the paper compares and prints the same rows,
// with the paper's published numbers alongside where available. The
// report experiments measure this implementation's own layers and write
// BENCH_<experiment>.json in the one envelope BENCHMARKS.md specifies.
//
// Usage:
//
//	gcbench -experiment all            # every paper figure (slow)
//	gcbench -experiment fig9           # one experiment
//	gcbench -experiment char           # Figures 10-15 (characterization)
//	gcbench -experiment cards          # Figures 21-23 (card-size sweep)
//	gcbench -experiment aging          # Figures 18-19
//	gcbench -scale 0.25 -repeats 1 ... # quicker, noisier
//
//	gcbench -experiment alloc          # allocator mutator-count sweep
//	gcbench -experiment barrier        # barrier mode × write API sweep
//	gcbench -experiment telemetry      # telemetry overhead, scrape agreement
//	gcbench -experiment matrix         # contention matrix
//	gcbench -experiment server         # server-mode overload sweep
//	gcbench -experiment matrix -smoke  # seconds-long subset -> BENCH_matrix-smoke.json
//
// Before a report experiment overwrites BENCH_<experiment>.json it reads
// the committed file as its baseline, used only when the file was
// produced on a host with this host's fingerprint. Exit codes: 0 =
// clean, 1 = error, 2 = the report was written but a gate flagged
// regressions.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"gengc"
	"gengc/internal/bench"
)

// errRegression marks a report experiment that completed (and wrote
// its report) but flagged regressions against its baseline or
// acceptance bound. main exits with code 2 so CI can gate on it while
// still collecting the report artifact.
var errRegression = errors.New("regressions flagged (see the JSON report)")

func main() {
	var (
		experiment = flag.String("experiment", "all", "fig7|fig8|fig9|char|fig16|fig17|aging|fig20|cards|all, or a report experiment: alloc|barrier|telemetry|matrix|server")
		scale      = flag.Float64("scale", 1.0, "workload length multiplier")
		repeats    = flag.Int("repeats", 3, "runs to average per measurement")
		seed       = flag.Int64("seed", 0, "workload random seed (0 = default)")
		gcworkers  = flag.Int("gcworkers", 1, "parallel collector workers (1 = the paper's single collector thread)")
		out        = flag.String("o", "", "also write results to this file")
		traceOut   = flag.String("trace", "", "write a JSONL event trace of every run to this file (render with gcreport)")
		csv        = flag.Bool("csv", false, "emit tables as CSV instead of aligned text")
		quiet      = flag.Bool("q", false, "suppress per-run progress")
		smoke      = flag.Bool("smoke", false, "matrix, server: run the seconds-long CI subset and write BENCH_<experiment>-smoke.json")
	)
	flag.Parse()

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		w = io.MultiWriter(os.Stdout, f)
	}

	opts := bench.Options{Scale: *scale, Repeats: *repeats, Seed: *seed, Workers: *gcworkers}
	if !*quiet {
		opts.Progress = os.Stderr
	}
	var sink *gengc.JSONLTraceSink
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		sink = gengc.NewJSONLTraceSink(f)
		opts.TraceSink = sink
	}

	fmt.Fprintf(w, "gcbench: scale=%v repeats=%d gcworkers=%d GOMAXPROCS=%d NumCPU=%d\n\n",
		*scale, *repeats, *gcworkers, runtime.GOMAXPROCS(0), runtime.NumCPU())
	start := time.Now()
	if err := run(w, opts, *experiment, *csv, *smoke); err != nil {
		fmt.Fprintln(os.Stderr, "gcbench:", err)
		if errors.Is(err, errRegression) {
			os.Exit(2)
		}
		os.Exit(1)
	}
	if sink != nil {
		if err := sink.Err(); err != nil {
			fmt.Fprintln(os.Stderr, "gcbench: writing trace:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "trace written to %s (render with: gcreport %s)\n",
			*traceOut, *traceOut)
	}
	fmt.Fprintf(w, "total experiment time: %v\n", time.Since(start).Round(time.Second))
}

func run(w io.Writer, opts bench.Options, experiment string, csv, smoke bool) error {
	render := func(t bench.Table) {
		if csv {
			t.FormatCSV(w)
			fmt.Fprintln(w)
		} else {
			t.Format(w)
		}
	}
	emit := func(t bench.Table, err error) error {
		if err != nil {
			return err
		}
		render(t)
		return nil
	}
	char := func() error {
		chs, err := opts.Characterize()
		if err != nil {
			return err
		}
		for _, t := range []bench.Table{
			bench.Fig10(chs), bench.Fig11(chs), bench.Fig12(chs),
			bench.Fig13(chs), bench.Fig14(chs), bench.Fig15(chs),
		} {
			render(t)
		}
		return nil
	}
	cards := func() error {
		sweeps, err := opts.SweepCards()
		if err != nil {
			return err
		}
		for _, t := range []bench.Table{bench.Fig21(sweeps), bench.Fig22(sweeps), bench.Fig23(sweeps)} {
			render(t)
		}
		return nil
	}

	switch experiment {
	case "fig7":
		return emit(opts.Fig7())
	case "fig8":
		return emit(opts.Fig8())
	case "fig9":
		return emit(opts.Fig9())
	case "char", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15":
		return char()
	case "fig16":
		return emit(opts.Fig16())
	case "fig17":
		return emit(opts.Fig17())
	case "aging", "fig18", "fig19":
		return emit(opts.FigAging())
	case "fig20":
		return emit(opts.Fig20())
	case "cards", "fig21", "fig22", "fig23":
		return cards()
	case "alloc":
		return runReport(w, "alloc", smoke, func(base *allocReport) (*allocReport, error) {
			return allocExperiment(w, base)
		})
	case "barrier":
		return runReport(w, "barrier", smoke, func(base *barrierReport) (*barrierReport, error) {
			return barrierExperiment(w, base)
		})
	case "telemetry":
		return runReport(w, "telemetry", smoke, func(*telemetryReport) (*telemetryReport, error) {
			return telemetryExperiment(w)
		})
	case "matrix":
		return runReport(w, "matrix", smoke, func(base *bench.MatrixReport) (*bench.MatrixReport, error) {
			return matrixExperiment(w, opts, smoke, base)
		})
	case "server":
		return runReport(w, "server", smoke, func(*bench.ServerReport) (*bench.ServerReport, error) {
			return serverExperiment(w, opts, smoke)
		})
	case "all":
		for _, step := range []func() error{
			func() error { return emit(opts.Fig7()) },
			func() error { return emit(opts.Fig8()) },
			func() error { return emit(opts.Fig9()) },
			char,
			func() error { return emit(opts.Fig16()) },
			func() error { return emit(opts.Fig17()) },
			func() error { return emit(opts.FigAging()) },
			func() error { return emit(opts.Fig20()) },
			cards,
		} {
			if err := step(); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("unknown experiment %q", experiment)
	}
}

// runReport runs the report experiment name. It loads the committed
// BENCH_<name>.json as the baseline before anything can overwrite it,
// hands it to run (nil when LoadBaseline refused it or found none), and
// writes the new report atomically — to BENCH_<name>-smoke.json for a
// smoke run, so the committed full report stays in place.
func runReport[R, C any](w io.Writer, name string, smoke bool,
	run func(base *bench.Report[R, C]) (*bench.Report[R, C], error)) error {
	path := "BENCH_" + name + ".json"
	base, status := bench.LoadBaseline[R, C](path, name)
	rep, err := run(base)
	if err != nil {
		return err
	}
	if rep.BaselineComparison == "" {
		rep.BaselineComparison = status
	}
	fmt.Fprintf(w, "baseline comparison: %s\n", rep.BaselineComparison)
	for _, f := range rep.Findings {
		fmt.Fprintf(w, "finding: %s\n", f)
	}
	for _, r := range rep.Regressions {
		fmt.Fprintf(w, "regression: %s\n", r)
	}
	if smoke {
		path = "BENCH_" + name + "-smoke.json"
	}
	if err := bench.WriteReport(path, rep); err != nil {
		return err
	}
	fmt.Fprintf(w, "%s report written to %s\n\n", name, path)
	if len(rep.Regressions) > 0 {
		return fmt.Errorf("%s: %w", name, errRegression)
	}
	return nil
}
