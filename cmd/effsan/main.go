// Command effsan compiles a mini-C program and runs it under a chosen
// sanitizer configuration, reporting detected type and memory errors —
// the reproduction's equivalent of building a program with the
// EffectiveSan compiler wrapper.
//
// Usage:
//
//	effsan [-variant full|bounds|type|none] [-abort N] [-quarantine B] [-stats] prog.c
//	effsan -tool NAME [-stats] prog.c
//	effsan -warn-static prog.c
//	effsan -cpuprofile cpu.pprof -memprofile mem.pprof prog.c
//
// With -variant (default full) the program is instrumented per the
// Fig. 3 schema and run on the EffectiveSan runtime. With -tool, one of
// the modelled baseline sanitizers (AddressSanitizer, SoftBound, CETS,
// TypeSan, ...) intercepts the uninstrumented program instead; -abort
// applies to EffectiveSan only and is a usage error with -tool.
//
// -cpuprofile and -memprofile write pprof profiles of the whole
// invocation — compile, instrument and run — for `go tool pprof`; the
// memory profile's alloc_space view is where per-call and per-check Go
// allocation shows up.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/ctypes"
	"repro/internal/instrument"
	"repro/internal/mir"
	"repro/internal/profiling"
	"repro/internal/sanitizers"
)

func main() {
	variant := flag.String("variant", "full",
		"EffectiveSan variant: full, bounds, type, or none (uninstrumented)")
	tool := flag.String("tool", "", "run under a modelled baseline sanitizer instead")
	abortAfter := flag.Uint64("abort", 0, "abort after N errors (0 = log all, the default)")
	quarantine := flag.Uint64("quarantine", 0, "heap quarantine bytes (delays reuse)")
	stats := flag.Bool("stats", false, "print runtime check statistics")
	entry := flag.String("entry", "main", "entry function")
	warnStatic := flag.Bool("warn-static", false,
		"compile only: print the static safety analysis' STATIC-UNSAFE diagnostics (checks proven to report on every execution that reaches them) and exit without running")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the invocation to this file")
	memProfile := flag.String("memprofile", "", "write a memory (allocation) profile to this file at exit")
	flag.Parse()

	if err := startProfiles(*cpuProfile, *memProfile); err != nil {
		fatal(err)
	}
	if err := checkFlags(flag.NArg(), *tool, *abortAfter); err != nil {
		fmt.Fprintf(os.Stderr, "effsan: %v\nusage: effsan [flags] prog.c\n", err)
		flag.Usage()
		exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	prog, err := cc.Compile(string(src), ctypes.NewTable())
	if err != nil {
		fatal(err)
	}

	if *warnStatic {
		exit(runWarnStatic(prog, *entry, os.Stdout))
	}

	cfg, err := newTool(*tool, *variant, *quarantine, *abortAfter)
	if err != nil {
		fatal(err)
	}
	if err := run(os.Stdout, os.Stderr, prog, cfg, *entry, *stats); err != nil {
		fatal(err)
	}
	exit(0)
}

// newTool returns the configuration the flags select: the baseline
// named by -tool, or else the EffectiveSan -variant with the -quarantine
// and -abort runtime settings.
func newTool(tool, variant string, quarantine, abortAfter uint64) (*sanitizers.Tool, error) {
	if tool != "" {
		for _, t := range sanitizers.Baselines() {
			if t.Name == tool {
				return t, nil
			}
		}
		return nil, fmt.Errorf("unknown tool %q (see sanitizers.Baselines)", tool)
	}
	v, ok := map[string]instrument.Variant{
		"full": instrument.Full, "bounds": instrument.BoundsOnly,
		"type": instrument.TypeOnly, "none": instrument.None,
	}[variant]
	if !ok {
		return nil, fmt.Errorf("unknown variant %q", variant)
	}
	return &sanitizers.Tool{Name: "EffectiveSan-" + variant,
		Instrument: instrument.Options{Variant: v},
		Runtime:    core.Options{Quarantine: quarantine, AbortAfter: abortAfter}}, nil
}

// run executes prog's entry under cfg, with the program's output and
// then the report on w. A run that -abort stopped still reports what it
// found, after the abort on errw; any other run error is returned.
func run(w, errw io.Writer, prog *mir.Program, cfg *sanitizers.Tool, entry string, stats bool) error {
	res, err := cfg.Exec(prog, entry, w)
	if err != nil {
		if res == nil {
			return err
		}
		fmt.Fprintf(errw, "effsan: %v\n", err)
	}
	report(w, res.Reporter, res.Stats, res.Value, stats)
	return nil
}

// checkFlags rejects the argument combinations flag.Parse accepts but
// effsan cannot honour: anything but exactly one program file, and
// -abort with -tool (the baselines always log every error). A non-nil
// error is a usage error: main exits with code 2.
func checkFlags(nargs int, tool string, abortAfter uint64) error {
	if nargs != 1 {
		return fmt.Errorf("want exactly one program file, got %d arguments", nargs)
	}
	if abortAfter > 0 && tool != "" {
		return fmt.Errorf("-abort applies to EffectiveSan only, not to -tool %s", tool)
	}
	return nil
}

// stopProfiles finishes the profiles startProfiles began; exit runs it.
var stopProfiles = func() {}

// startProfiles starts a CPU profile to cpuPath and arranges for exit
// to write a memory profile to memPath (either may be empty).
func startProfiles(cpuPath, memPath string) (err error) {
	stopProfiles, err = profiling.Start("effsan", cpuPath, memPath)
	return err
}

// exit finishes any profiles and ends the process with code.
func exit(code int) {
	stopProfiles()
	os.Exit(code)
}

// runWarnStatic is the -warn-static compile-only mode: instrument
// (running the interprocedural static safety pass) and print one
// diagnostic per STATIC-UNSAFE check site — a check proven to report an
// error on every execution that reaches it. The verdicts come from the
// same pass the full pipeline runs, so what is printed is exactly what
// a real run keeps and reports at runtime. Returns the process exit
// code: 1 when any site is flagged, 0 on a clean program.
func runWarnStatic(prog *mir.Program, entry string, w io.Writer) int {
	_, st := instrument.Instrument(prog, instrument.Options{
		Variant: instrument.Full, StaticEntry: entry,
	})
	if len(st.StaticDiags) == 0 {
		fmt.Fprintln(w, "no STATIC-UNSAFE check sites")
		return 0
	}
	for _, d := range st.StaticDiags {
		loc := d.Site
		if loc == "" {
			loc = "?"
		}
		fmt.Fprintf(w, "%s: warning: %s check always fails in %s: %s", loc, d.Kind, d.Func, d.Reason)
		if d.SiteID != 0 {
			fmt.Fprintf(w, " [site %d]", d.SiteID)
		}
		fmt.Fprintln(w)
	}
	return 1
}

func report(w io.Writer, rep *core.Reporter, st core.StatsSnapshot, val uint64, stats bool) {
	fmt.Fprintf(w, "exit value: %d\n", int64(val))
	if n := rep.NumIssues(); n > 0 {
		fmt.Fprintf(w, "--- %d distinct issue(s), %d error event(s) ---\n", n, rep.Total())
		fmt.Fprint(w, rep.Log())
	} else if rep.Total() > 0 {
		fmt.Fprintf(w, "--- %d error event(s) (counting mode) ---\n", rep.Total())
	} else {
		fmt.Fprintln(w, "no type or memory errors detected")
	}
	if stats {
		fmt.Fprintf(w, "type checks:    %d (legacy %.2f%%, null %d)\n",
			st.TypeChecks, st.LegacyRatio()*100, st.NullTypeChecks)
		fmt.Fprintf(w, "bounds checks:  %d\n", st.BoundsChecks)
		fmt.Fprintf(w, "bounds narrows: %d\n", st.BoundsNarrows)
		fmt.Fprintf(w, "coercions:      char %d, void* %d\n", st.CharCoercions, st.VoidPtrCoercions)
		fmt.Fprintf(w, "check cache:    fast-path %d, inline %d/%d (hit-rate %.1f%%), shared %d/%d (hit-rate %.1f%%), layout matches %d\n",
			st.CheckFastPath,
			st.InlineCacheHits, st.InlineCacheHits+st.InlineCacheMisses,
			st.InlineCacheHitRate()*100,
			st.CheckCacheHits, st.CheckCacheHits+st.CheckCacheMisses,
			st.CheckCacheHitRate()*100, st.LayoutMatches)
		fmt.Fprintf(w, "allocations:    heap %d, stack %d, global %d; frees %d\n",
			st.HeapAllocs, st.StackAllocs, st.GlobalAllocs, st.Frees)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "effsan: %v\n", err)
	exit(1)
}
