// Command effbench regenerates the tables and figures of the paper's
// evaluation section (Duck & Yap, PLDI 2018, §6) from the reproduction's
// workloads:
//
//	effbench -experiment fig1    sanitizer capability matrix (Fig. 1)
//	effbench -experiment fig7    SPEC2006 summary: checks and issues (Fig. 7)
//	effbench -experiment fig8    SPEC2006 + progen timings, eight configurations (Fig. 8)
//	effbench -experiment fig9    peak memory (Fig. 9)
//	effbench -experiment fig10   browser workloads (relative time)
//	effbench -experiment tools   §6.2 overhead comparison of baseline tools
//	effbench -experiment all     everything above
//
// One extra experiment sits outside "all" (a correctness harness, not a
// paper figure):
//
//	effbench -experiment difftest   the differential-fuzz oracle loop —
//	                                progen libc programs swept through the
//	                                whole elision/cache/static/sharding
//	                                matrix, asserting byte-identical values
//	                                and report buckets; -seed picks the
//	                                base progen seed
//
// -cpuprofile and -memprofile write pprof profiles of the whole
// invocation, as they do for effsan.
//
// -repeat sets the best-of timing repetitions of fig8 and the fig10
// browser bars; see docs/BENCHMARKS.md for every flag, knob combination
// and the JSON schemas emitted by -json (Fig. 8 series) and -json-fig10
// (Fig. 10 bars).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"repro/internal/difftest"
	"repro/internal/harness"
	"repro/internal/profiling"
	"repro/internal/progen"
)

// fig8JSON is the machine-readable form of the Fig. 8 series, committed
// as BENCH_fig8.json so successive PRs have a perf trajectory.
type fig8JSON struct {
	Experiment string            `json:"experiment"`
	Rows       []harness.Fig8Row `json:"rows"`
	// GoMaxProcs records the measuring machine's parallelism. The bars
	// themselves are single-threaded, but the test suite (and CI) runs
	// them under contention, so cross-run comparisons should confirm the
	// parallelism matched before reading small deltas as regressions.
	GoMaxProcs      int                `json:"gomaxprocs"`
	GeomeanOverhead map[string]float64 `json:"geomean_overhead"`
	// CostOverhead is the geomean overhead of each bar's cost column
	// (harness.RunCost): deterministic, so it compares across machines
	// and runs where the wall-clock overheads do not.
	CostOverhead map[string]float64 `json:"cost_geomean_overhead"`
	// Caveat flags measurement conditions that bias the bars — currently
	// set when GOMAXPROCS is 1, where timer resolution and run-to-run
	// scheduling noise dominate the cheap ablation gaps.
	Caveat string `json:"caveat,omitempty"`
}

// fig10JSON is the machine-readable form of the Fig. 10 browser
// relative-time bars, committed as BENCH_fig10.json.
type fig10JSON struct {
	Experiment string `json:"experiment"`
	// GoMaxProcs and NumCPU record the measuring machine's parallelism:
	// each browser workload runs its sessions on a worker pool, so the
	// bars' wall-clock depends on how many of them run at once.
	GoMaxProcs int                `json:"gomaxprocs"`
	NumCPU     int                `json:"num_cpu"`
	Browser    []harness.Fig10Row `json:"browser"`
	// Caveat flags measurement conditions that bias the bars — currently
	// set when GOMAXPROCS is 1, where every session serializes onto one
	// core.
	Caveat string `json:"caveat,omitempty"`
}

// options holds the flags the experiments read.
type options struct {
	seed                 int64
	repeat               int
	jsonPath, json10Path string
}

// experiment is one -experiment name and what it runs.
type experiment struct {
	name string
	// solo experiments run only when named, never under "all": difftest
	// is a pass/fail correctness harness over the whole configuration
	// matrix, not a figure, and "all" regenerates exactly the paper's
	// evaluation artifacts.
	solo bool
	run  func(*options) error
}

// experiments is the one list of -experiment names, in the order "all"
// runs them.
var experiments = []experiment{
	{name: "fig1", run: table(harness.Fig1)},
	{name: "fig7", run: table(harness.Fig7)},
	{name: "fig8", run: runFig8},
	{name: "fig9", run: table(harness.Fig9)},
	{name: "fig10", run: runFig10},
	{name: "tools", run: func(*options) error {
		_, err := harness.ToolComparison(os.Stdout, nil)
		return err
	}},
	{name: "difftest", solo: true, run: func(o *options) error { return runDifftest(o.seed) }},
}

// table runs a harness figure that only prints its table.
func table[R any](fig func(io.Writer) (R, error)) func(*options) error {
	return func(*options) error {
		_, err := fig(os.Stdout)
		return err
	}
}

// experimentUsage is the -experiment help text, read off experiments.
func experimentUsage() string {
	var all, solo []string
	for _, e := range experiments {
		if e.solo {
			solo = append(solo, e.name)
		} else {
			all = append(all, e.name)
		}
	}
	return fmt.Sprintf("which experiment to run: %s, all (every one of those), or %s (not part of all)",
		strings.Join(all, ", "), strings.Join(solo, ", "))
}

// selectExperiments returns the experiments -experiment name runs, or
// an error for a name experiments does not list.
func selectExperiments(name string) ([]experiment, error) {
	var out []experiment
	for _, e := range experiments {
		if e.name == name || (name == "all" && !e.solo) {
			out = append(out, e)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("unknown experiment %q", name)
	}
	return out, nil
}

func main() {
	var o options
	experiment := flag.String("experiment", "all", experimentUsage())
	flag.Int64Var(&o.seed, "seed", 1,
		"base progen seed for the difftest experiment's generated programs")
	flag.IntVar(&o.repeat, "repeat", 3, "timing repetitions (best-of) for fig8 and fig10")
	flag.StringVar(&o.jsonPath, "json", "",
		"also write the fig8 series as JSON to this path (requires fig8 to run)")
	flag.StringVar(&o.json10Path, "json-fig10", "",
		"also write the fig10 bars as JSON to this path (requires fig10 to run)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the invocation to this file")
	memProfile := flag.String("memprofile", "", "write a memory (allocation) profile to this file at exit")
	flag.Parse()

	selected, err := selectExperiments(*experiment)
	if err != nil {
		fmt.Fprintf(os.Stderr, "effbench: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}
	if stopProfiles, err = profiling.Start("effbench", *cpuProfile, *memProfile); err != nil {
		fmt.Fprintf(os.Stderr, "effbench: %v\n", err)
		os.Exit(1)
	}
	defer stopProfiles()

	for _, e := range selected {
		if err := e.run(&o); err != nil {
			fmt.Fprintf(os.Stderr, "effbench: %s: %v\n", e.name, err)
			exit(1)
		}
		fmt.Println()
	}
}

// runFig8 is the fig8 experiment: the timings table, and with -json the
// series as JSON.
func runFig8(o *options) error {
	rows, err := harness.Fig8(os.Stdout, o.repeat)
	if err != nil || o.jsonPath == "" {
		return err
	}
	out := fig8JSON{Experiment: "fig8", Rows: rows, GoMaxProcs: runtime.GOMAXPROCS(0),
		GeomeanOverhead: map[string]float64{}, CostOverhead: map[string]float64{}}
	if out.GoMaxProcs == 1 {
		out.Caveat = "timings measured with GOMAXPROCS=1: scheduling noise " +
			"and timer resolution dominate the cheap ablation gaps, so " +
			"read only the large-overhead orderings (the cost columns " +
			"are deterministic)"
		fmt.Fprintf(os.Stderr, "effbench: warning: %s\n", out.Caveat)
	}
	// Derive the instrumented configurations from the rows themselves,
	// so added or renamed Fig. 8 bars flow into the JSON automatically.
	if len(rows) > 0 {
		for cfg := range rows[0].Seconds {
			if cfg != "Uninstrumented" {
				out.GeomeanOverhead[cfg] = harness.OverheadGeomean(rows, cfg)
				out.CostOverhead[cfg] = harness.CostOverheadGeomean(rows, cfg)
			}
		}
	}
	return writeJSON(o.jsonPath, out)
}

// runFig10 is the fig10 experiment: the browser bars, and with
// -json-fig10 the bars as JSON.
func runFig10(o *options) error {
	browser, err := harness.Fig10(os.Stdout, o.repeat)
	if err != nil || o.json10Path == "" {
		return err
	}
	out := fig10JSON{Experiment: "fig10", GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU: runtime.NumCPU(), Browser: browser}
	if out.GoMaxProcs == 1 {
		out.Caveat = "bars measured with GOMAXPROCS=1: each workload's " +
			"sessions serialize onto one core"
		fmt.Fprintf(os.Stderr, "effbench: warning: %s\n", out.Caveat)
	}
	return writeJSON(o.json10Path, out)
}

// runDifftest is the -experiment difftest entry: it sweeps progen libc
// programs (option byte exhausted twice over, seeds ascending from the
// -seed base) through the full differential matrix and fails on the
// first run if any configuration disagrees with the single-threaded
// precise oracle. Disagreements are shrunk and written as replayable
// fuzz-corpus files under internal/difftest/testdata/failures.
func runDifftest(seed int64) error {
	const programs = 512
	cfgs := difftest.Matrix()
	fmt.Printf("Differential oracle: %d progen libc programs x %d configurations (base seed %d)\n",
		programs, len(cfgs), seed)
	if runtime.GOMAXPROCS(0) == 1 {
		fmt.Fprintln(os.Stderr, "effbench: note: GOMAXPROCS=1 serializes the sharded "+
			"cells onto one core; agreement checking is unaffected, only slower")
	}
	mismatches := 0
	for i := 0; i < programs; i++ {
		in := difftest.EncodeInput(seed+int64(i), progen.Options{})
		in[8] = byte(i)
		s, opts, _ := difftest.DecodeInput(in)
		prog, err := difftest.Build(s, opts)
		if err != nil {
			return err
		}
		mm, err := difftest.Check(prog)
		if err != nil {
			return err
		}
		if mm != nil {
			mismatches++
			min := difftest.Shrink(s, opts)
			path, werr := difftest.WriteReproducer(
				filepath.Join("internal", "difftest", "testdata", "failures"), s, min)
			if werr != nil {
				path = fmt.Sprintf("(reproducer write failed: %v)", werr)
			}
			fmt.Printf("MISMATCH seed %d opts %+v:\n%s\nshrunk reproducer: %s\n", s, opts, mm, path)
		}
	}
	if mismatches > 0 {
		return fmt.Errorf("%d/%d programs disagreed with the oracle", mismatches, programs)
	}
	fmt.Printf("all %d programs agree byte-for-byte across all %d configurations\n",
		programs, len(cfgs))
	return nil
}

// stopProfiles finishes the -cpuprofile/-memprofile profiles; main
// defers it and exit runs it.
var stopProfiles = func() {}

// exit finishes any profiles and ends the process with code.
func exit(code int) {
	stopProfiles()
	os.Exit(code)
}

// writeJSON marshals v indented and writes it with a trailing newline.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
