// Command bench is the repository's benchmark. It runs one workload — a
// fixed set of mini-C programs, in seeded order — through every layer of
// the system, pass after pass, times each call from outside, checks every
// program's output, and prints every metric as "name value unit" followed
// by one JSON line. See README.md.
//
//	bench -workload spec -seed 1 -seconds 20 [-trace 1] [-out result.json]
//	bench -seed 1 -out result.json          # all workloads, one child process each
//	bench -compare <parentDir> <changeDir>  # judge a change from result files
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
)

// Every run sets up this many times; setup_s is their median.
const setupReps = 3

func main() {
	name := flag.String("workload", "", "workload to run; empty runs every workload, each in its own process")
	seed := flag.Int64("seed", 1, "seed of each pass's program order")
	secs := flag.Float64("seconds", 20, "measure passes for this many seconds")
	trace := flag.Int("trace", 0, "1 alternates untraced and traced passes and reports per-layer metrics")
	out := flag.String("out", "", "write the JSON result file here")
	traceDir := flag.String("tracedir", filepath.Join(".bench_build", "trace"), "traced runs write spans and CPU profiles under this directory")
	compare := flag.Bool("compare", false, "compare two directories of result files: -compare <parentDir> <changeDir>")
	benchJSON := flag.String("benchmark", "BENCHMARK.json", "benchmark definition holding each metric's bound (for -compare)")
	flag.Parse()

	// The benchmark uses at most two threads, whatever the machine has.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = errors.New("-compare needs <parentDir> <changeDir>")
			break
		}
		err = runCompare(os.Stdout, *benchJSON, flag.Arg(0), flag.Arg(1))
	case *trace != 0 && *trace != 1:
		err = fmt.Errorf("-trace must be 0 or 1, not %d", *trace)
	case *name == "":
		err = runAll(*seed, *secs, *trace, *out, *traceDir)
	default:
		w := workloadByName(*name)
		if w == nil {
			err = fmt.Errorf("unknown workload %q", *name)
			break
		}
		err = runOne(w, *seed, runOpts{seconds: *secs, setupReps: setupReps, minPasses: 3 + *trace, trace: *trace == 1}, *out, *traceDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// resultFile is the JSON result file: one entry per workload run.
type resultFile struct {
	Results []*result `json:"results"`
}

// runOne measures one workload and reports it.
func runOne(w *workload, seed int64, opts runOpts, out, traceDir string) error {
	rd, err := measure(w, seed, opts)
	if err != nil {
		return err
	}
	res := rd.summarize()
	if opts.trace {
		if err := writeTrace(filepath.Join(traceDir, w.name), rd); err != nil {
			return err
		}
	}
	if out != "" {
		if err := writeJSON(out, resultFile{Results: []*result{res}}); err != nil {
			return err
		}
	}
	for _, f := range res.Failures {
		fmt.Fprintln(os.Stderr, "FAIL", f)
	}
	return report(os.Stdout, res)
}

// runAll runs every workload in a child process of its own, so each
// starts with a fresh Go heap and has its own peak RSS, and merges their
// result files.
func runAll(seed int64, secs float64, trace int, out, traceDir string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var all resultFile
	for _, w := range workloads {
		args := []string{"-workload", w.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(secs),
			"-trace", fmt.Sprint(trace), "-tracedir", traceDir}
		part := ""
		if out != "" {
			part = out + "." + w.name + ".part"
			args = append(args, "-out", part)
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("workload %s: %w", w.name, err)
		}
		if part != "" {
			var rf resultFile
			if err := readJSON(part, &rf); err != nil {
				return err
			}
			all.Results = append(all.Results, rf.Results...)
			if err := os.Remove(part); err != nil {
				return err
			}
		}
	}
	if out == "" {
		return nil
	}
	return writeJSON(out, all)
}

// metricValue is one metric of the final JSON line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints every metric as "name value unit", then the JSON line:
// the end-to-end metrics of an untraced run, or the per-layer metrics of
// a traced one.
func report(w io.Writer, res *result) error {
	fmt.Fprintf(w, "# workload %s seed %d: %d setups, %d passes, %d traced passes, calib_ref_s %g\n",
		res.Workload, res.Seed, res.Setups, res.Passes, res.TracedPasses, res.CalibRefS)
	printDefs := func(defs []metricDef, vals map[string]float64) {
		for _, m := range defs {
			if v, ok := vals[m.name]; ok {
				fmt.Fprintf(w, "%s %.6g %s\n", m.name, v, m.unit)
			}
		}
	}
	printDefs(endToEnd, res.EndToEnd)
	fmt.Fprintf(w, "fail_ratio %g ratio (%d failed of %d attempted)\n", res.FailRatio, res.Failed, res.Attempted)
	fmt.Fprintf(w, "# tail_ratio is p%d of %d samples\n", res.TailPercentile, res.TailSamples)
	printDefs(perLayer, res.PerLayer)
	names := make([]string, 0, len(res.SpanSelfS))
	for n := range res.SpanSelfS {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "self.%s %.6g s\n", n, res.SpanSelfS[n])
	}

	defs, vals := endToEnd, res.EndToEnd
	if res.Trace {
		defs, vals = perLayer, res.PerLayer
	}
	line := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]metricValue{}}
	for _, m := range defs {
		if v, ok := vals[m.name]; ok {
			line.Metrics[m.name] = metricValue{v, m.unit}
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// dropNaN removes metrics a run could not compute (too few passes or
// samples), so they are absent rather than invalid JSON.
func dropNaN(m map[string]float64) {
	for k, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			delete(m, k)
		}
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// writeTrace writes a traced run's spans and the CPU profile of each
// traced pass (merge them with `go tool pprof dir/cpu-*.pprof`).
func writeTrace(dir string, rd *runData) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := writeJSON(filepath.Join(dir, "spans.json"), rd.r.tr.spans); err != nil {
		return err
	}
	for i, p := range rd.profiles {
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("cpu-%d.pprof", i+1)), p, 0o644); err != nil {
			return err
		}
	}
	return nil
}
