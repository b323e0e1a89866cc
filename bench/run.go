package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"time"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/ctypes"
	"repro/internal/instrument"
	"repro/internal/mir"
	"repro/internal/sanitizers"
)

// sample is one (pass, program) measurement.
type sample struct {
	compile, instrument, run, base time.Duration
	attrib                         time.Duration // a traced pass's attribution calls
	// alloc is the Go heap bytes compile, instrument and the EffectiveSan
	// run allocated: the calls total_s times.
	alloc uint64
	// layer holds the program's per-layer counts and raw layer times in
	// seconds (keys ending in _s), summed over programs per pass.
	layer map[string]float64
}

// passRec is one pass over every program of the workload.
type passRec struct {
	traced  bool
	wall    time.Duration      // the whole pass
	prep    time.Duration      // calibration kernels and GCs inside the pass
	attrib  time.Duration      // attribution calls of a traced pass
	calibs  []time.Duration    // the calibration kernels run during the pass
	scale   float64            // reference seconds per raw second (localScale)
	samples []sample           // indexed by program, not by run order
	layer   map[string]float64 // per-layer sums over the pass
}

// work is the pass's time in the layers: its wall time without the
// kernels, GCs and attribution calls the benchmark adds.
func (p *passRec) work() time.Duration { return p.wall - p.prep - p.attrib }

// runner drives the workload's programs through the layers, pass after
// pass, and checks every output.
type runner struct {
	w     *workload
	progs []program
	order *rand.Rand // seeded program order of each pass
	tr    *tracer    // records the spans of traced passes; nil when untraced
	// kernel runs between timed runs, about every calibEvery, so each
	// pass is scaled to reference seconds by calibrations spread evenly
	// through it.
	kernel    *calibKernel
	lastCalib time.Time
	cur       *passRec // the pass being run
	// effFirst alternates, separately for untraced and traced passes,
	// whether the EffectiveSan run precedes the uninstrumented one.
	effFirst [2]bool
	// benchGCs counts the GC cycles prep caused, which go.gc_cycles
	// leaves out.
	benchGCs  uint64
	attempted int
	failed    int
	failures  []string
}

// maxFailures bounds the failure messages a run keeps.
const maxFailures = 20

func newRunner(w *workload, seed int64) *runner {
	return &runner{w: w, order: rand.New(rand.NewSource(seed)), kernel: newCalibKernel(), effFirst: [2]bool{true, true}}
}

// pass runs every program once, in a seeded order, and returns the
// measurements. Pass numbers only label spans.
func (r *runner) pass(n int, traced bool) passRec {
	var tr *tracer
	kind := 0
	if traced {
		tr, kind = r.tr, 1
	}
	effFirst := r.effFirst[kind]
	r.effFirst[kind] = !effFirst

	rec := passRec{traced: traced, samples: make([]sample, len(r.progs)), layer: map[string]float64{}}
	r.cur = &rec
	gcs, benchGCs := readMetric(gcCycles), r.benchGCs
	start := time.Now()
	root := tr.open("bench.pass", 0, 0, n, start)
	for _, j := range r.order.Perm(len(r.progs)) {
		p := &r.progs[j]
		r.prep(tr, root, 0, n)
		s, err := r.exec(p, n, effFirst, tr, root)
		r.attempted++
		if err != nil {
			r.failed++
			if len(r.failures) < maxFailures {
				r.failures = append(r.failures, fmt.Sprintf("%s/%s pass %d: %v", r.w.name, p.name, n, err))
			}
		}
		rec.samples[j] = s
		rec.attrib += s.attrib
	}
	end := time.Now()
	tr.close(root, end)
	rec.wall = end.Sub(start)
	rec.scale = localScale(rec.calibs)
	r.cur = nil
	for _, s := range rec.samples {
		for k, v := range s.layer {
			rec.layer[k] += v
		}
		rec.layer["go.alloc_bytes"] += float64(s.alloc)
	}
	rec.layer["go.gc_cycles"] = float64(readMetric(gcCycles) - gcs - (r.benchGCs - benchGCs))
	deriveRatios(rec.layer)
	return rec
}

// compileReps is how many times each pass compiles each program; compile_s
// is their mean. One compilation takes ~0.5–3 ms, short enough that a
// single timing is mostly scheduler and timer noise.
const compileReps = 8

// calibEvery is how much time may pass between two calibration kernels:
// at ~10 ms a kernel, calibration costs about a tenth of a run.
const calibEvery = 100 * time.Millisecond

// prep runs, untimed, before every compile and every program run: a
// calibration kernel when one is due, then a GC, so the timed call
// starts from a clean heap as it would in a fresh process and pays for
// no other call's garbage, the kernel's included.
func (r *runner) prep(tr *tracer, parent, trace, pass int) {
	gcs := readMetric(gcCycles)
	start := time.Now()
	if len(r.cur.calibs) == 0 || start.Sub(r.lastCalib) >= calibEvery {
		r.cur.calibs = append(r.cur.calibs, r.kernel.run())
		r.lastCalib = time.Now()
		tr.add("bench.calibrate", parent, trace, pass, start, r.lastCalib)
	}
	mid := time.Now()
	runtime.GC()
	end := time.Now()
	r.benchGCs += readMetric(gcCycles) - gcs
	r.cur.prep += end.Sub(start)
	tr.add("bench.gc", parent, trace, pass, mid, end)
}

// deriveRatios adds the per-layer ratios computed from a pass's summed
// counts.
func deriveRatios(m map[string]float64) {
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	m["core.fast_path_ratio"] = ratio(m["core.fast_path"], m["core.type_checks"])
	m["core.inline_hit_ratio"] = ratio(m["core.inline_hits"], m["core.inline_hits"]+m["core.inline_misses"])
	m["core.memo_hit_ratio"] = ratio(m["core.memo_hits"], m["core.memo_hits"]+m["core.memo_misses"])
}

// exec runs one program through the pipeline, then, in a traced pass,
// makes the attribution calls outside the program's span.
func (r *runner) exec(p *program, pass int, effFirst bool, tr *tracer, root int) (sample, error) {
	trace := tr.newTrace()
	s := sample{layer: map[string]float64{}}
	ps := tr.open("bench.program", root, trace, pass, time.Now())
	prog, ip, err := r.pipeline(p, &s, effFirst, tr, ps, trace, pass)
	tr.close(ps, time.Now())
	if err != nil || tr == nil {
		return s, err
	}
	start := time.Now()
	err = r.attribute(p, prog, ip, &s, tr, root, trace, pass)
	s.attrib = time.Since(start)
	return s, err
}

// pipeline is cc.Compile → instrument.Instrument → the EffectiveSan run
// (core.NewRuntime → mir.New → Run, or ExecSharded) and the
// uninstrumented run, in the order effFirst gives. It checks the
// program's value against the uninstrumented run and its distinct issue
// count against the expected one.
func (r *runner) pipeline(p *program, s *sample, effFirst bool, tr *tracer, ps, trace, pass int) (prog, ip *mir.Program, err error) {
	a0 := readMetric(heapAllocs)
	t0 := time.Now()
	for i := 0; i < compileReps && err == nil; i++ {
		prog, err = cc.Compile(p.src, ctypes.NewTable())
	}
	t1 := time.Now()
	a1 := readMetric(heapAllocs)
	tr.add("cc.compile", ps, trace, pass, t0, t1)
	s.compile, s.alloc = t1.Sub(t0)/compileReps, (a1-a0)/compileReps
	if err != nil {
		return nil, nil, fmt.Errorf("cc.Compile: %w", err)
	}
	ip, ist := instrument.Instrument(prog, instrument.Options{Variant: instrument.Full, StaticEntry: p.entry})
	t2 := time.Now()
	tr.add("instrument.instrument", ps, trace, pass, t1, t2)
	s.instrument = t2.Sub(t1)
	s.alloc += readMetric(heapAllocs) - a1
	countPrograms(s.layer, prog, ip, ist)
	// Every workload reports every per-layer metric: a layer call the
	// workload never makes reads zero.
	for _, k := range []string{"mir.new_s", "sanitizers.busy_s", "lowfat.magazine_refills", "lowfat.magazine_flushes"} {
		s.layer[k] += 0
	}

	var effVal, baseVal uint64
	var issues int
	eff := func() error {
		a0 := readMetric(heapAllocs)
		defer func() { s.alloc += readMetric(heapAllocs) - a0 }()
		if r.w.sharded {
			a := time.Now()
			res, err := sanitizers.ToolEffectiveSan.ExecSharded(prog, p.entry, shardJobs, shardThreads, nil)
			tr.add("sanitizers.exec_sharded", ps, trace, pass, a, time.Now())
			if err != nil {
				return fmt.Errorf("EffectiveSan ExecSharded: %w", err)
			}
			s.run, effVal, issues = res.Wall, res.Value, res.Reporter.NumIssues()
			countRuntime(s.layer, res.Stats, res.Reporter, res.HeapPeak, res.MemPages)
			for _, w := range res.Workers {
				s.layer["lowfat.magazine_refills"] += float64(w.Magazine.Refills)
				s.layer["lowfat.magazine_flushes"] += float64(w.Magazine.Flushes)
			}
			s.layer["sanitizers.busy_s"] += res.TotalBusy().Seconds()
			return nil
		}
		a := time.Now()
		rt := core.NewRuntime(core.Options{Types: prog.Types})
		b := time.Now()
		tr.add("core.new_runtime", ps, trace, pass, a, b)
		opts := mir.Options{Env: mir.NewEffEnv(rt), Eff: rt}
		var env *timedEnv
		var ops *opCounter
		if tr != nil {
			env, ops = &timedEnv{Env: opts.Env}, &opCounter{}
			opts.Env, opts.Hooks = env, ops
		}
		in, err := mir.New(ip, opts)
		c := time.Now()
		tr.add("mir.new", ps, trace, pass, b, c)
		if err != nil {
			return fmt.Errorf("mir.New: %w", err)
		}
		v, err := in.Run(p.entry)
		d := time.Now()
		tr.add("mir.run", ps, trace, pass, c, d)
		if err != nil {
			return fmt.Errorf("EffectiveSan run: %w", err)
		}
		s.run, effVal, issues = d.Sub(c), v, rt.Reporter.NumIssues()
		s.layer["mir.new_s"] += c.Sub(b).Seconds()
		countRuntime(s.layer, rt.Stats(), rt.Reporter, rt.Heap().Stats().Peak, rt.Mem().TouchedBytes())
		if env != nil {
			countObserved(s.layer, env, ops, 1)
		}
		return nil
	}
	base := func() error {
		if r.w.sharded {
			a := time.Now()
			res, err := sanitizers.ToolUninstrumented.ExecSharded(prog, p.entry, shardJobs, shardThreads, nil)
			tr.add("uninstr.exec_sharded", ps, trace, pass, a, time.Now())
			if err != nil {
				return fmt.Errorf("uninstrumented ExecSharded: %w", err)
			}
			s.base, baseVal = res.Wall, res.Value
			return nil
		}
		a := time.Now()
		in, err := mir.New(prog, mir.Options{Env: mir.NewPlainEnv(nil)})
		b := time.Now()
		tr.add("uninstr.new", ps, trace, pass, a, b)
		if err != nil {
			return fmt.Errorf("uninstrumented mir.New: %w", err)
		}
		v, err := in.Run(p.entry)
		c := time.Now()
		tr.add("uninstr.run", ps, trace, pass, b, c)
		if err != nil {
			return fmt.Errorf("uninstrumented run: %w", err)
		}
		s.base, baseVal = c.Sub(b), v
		return nil
	}
	first, second := eff, base
	if !effFirst {
		first, second = base, eff
	}
	r.prep(tr, ps, trace, pass)
	if err := first(); err != nil {
		return prog, ip, err
	}
	r.prep(tr, ps, trace, pass)
	if err := second(); err != nil {
		return prog, ip, err
	}
	if effVal != baseVal {
		return prog, ip, fmt.Errorf("EffectiveSan value %d, uninstrumented value %d", effVal, baseVal)
	}
	if issues != p.issues {
		return prog, ip, fmt.Errorf("%d distinct issues, want %d", issues, p.issues)
	}
	return prog, ip, nil
}

// attribute makes a traced pass's extra calls: instrumentation without
// optimisation (instrument.insert), the static safety analysis on its
// output (instrument.absint), and for sharded workloads one observed
// single-threaded run.
func (r *runner) attribute(p *program, prog, ip *mir.Program, s *sample, tr *tracer, root, trace, pass int) error {
	a := time.Now()
	ins, _ := instrument.Instrument(prog, instrument.Options{Variant: instrument.Full, NoOptimize: true, StaticEntry: p.entry})
	b := time.Now()
	mir.AnalyzeSafety(ins, []string{p.entry})
	c := time.Now()
	tr.add("instrument.insert", root, trace, pass, a, b)
	tr.add("instrument.absint", root, trace, pass, b, c)
	s.layer["instrument.insert_s"] += b.Sub(a).Seconds()
	s.layer["instrument.absint_s"] += c.Sub(b).Seconds()
	s.layer["instrument.optimize_s"] += (s.instrument - c.Sub(a)).Seconds()
	if !r.w.sharded {
		return nil
	}
	// ExecSharded builds its environments inside the pool, so the
	// interpreter and allocator counts of a sharded program come from one
	// run of the same program outside it, scaled to the pool's job count.
	d := time.Now()
	defer func() { tr.add("attrib.run", root, trace, pass, d, time.Now()) }()
	rt := core.NewRuntime(core.Options{Types: prog.Types})
	env, ops := &timedEnv{Env: mir.NewEffEnv(rt)}, &opCounter{}
	in, err := mir.New(ip, mir.Options{Env: env, Eff: rt, Hooks: ops})
	if err != nil {
		return fmt.Errorf("attribution mir.New: %w", err)
	}
	if _, err := in.Run(p.entry); err != nil {
		return fmt.Errorf("attribution run: %w", err)
	}
	countObserved(s.layer, env, ops, shardJobs)
	return nil
}

// countPrograms records the sizes of the compiled and instrumented
// programs and what instrumentation did.
func countPrograms(m map[string]float64, prog, ip *mir.Program, ist instrument.Stats) {
	instrs := func(p *mir.Program) (n int) {
		for _, f := range p.Funcs {
			for _, b := range f.Blocks {
				n += len(b.Instrs)
			}
		}
		return n
	}
	checks := 0
	for _, f := range ip.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				switch in.Op {
				case mir.OpTypeCheck, mir.OpBoundsCheck, mir.OpBoundsGet, mir.OpEscapeCheck:
					checks++
				}
			}
		}
	}
	m["cc.mir_instrs"] += float64(instrs(prog))
	m["cc.funcs"] += float64(len(prog.Funcs))
	m["instrument.mir_instrs"] += float64(instrs(ip))
	m["instrument.static_checks"] += float64(checks)
	m["instrument.elided_static_safe"] += float64(ist.ElidedStaticSafe)
	m["instrument.hoisted"] += float64(ist.HoistedChecks)
	m["instrument.check_sites"] += float64(ist.CheckSites)
}

// countRuntime records an EffectiveSan run's runtime counters.
func countRuntime(m map[string]float64, st core.StatsSnapshot, rep *core.Reporter, heapPeak uint64, touched int64) {
	m["core.type_checks"] += float64(st.TypeChecks)
	m["core.bounds_checks"] += float64(st.BoundsChecks)
	m["core.fast_path"] += float64(st.CheckFastPath)
	m["core.inline_hits"] += float64(st.InlineCacheHits)
	m["core.inline_misses"] += float64(st.InlineCacheMisses)
	m["core.memo_hits"] += float64(st.CheckCacheHits)
	m["core.memo_misses"] += float64(st.CheckCacheMisses)
	m["core.layout_matches"] += float64(st.LayoutMatches)
	m["core.issues"] += float64(rep.NumIssues())
	m["core.reports"] += float64(rep.Total())
	m["layout.tables_built"] += float64(st.LayoutTablesBuilt)
	m["layout.tables_interned"] += float64(st.LayoutTablesInterned)
	m["layout.resident_bytes"] += float64(st.LayoutResidentBytes())
	m["lowfat.allocs"] += float64(st.HeapAllocs + st.StackAllocs + st.GlobalAllocs)
	m["lowfat.frees"] += float64(st.Frees)
	m["mem.touched_bytes"] += float64(touched)
	m["sim.heap_peak_bytes"] += float64(heapPeak)
}

// countObserved records what a traced run's env wrapper and hooks saw,
// multiplied by scale.
func countObserved(m map[string]float64, env *timedEnv, ops *opCounter, scale float64) {
	m["mir.loads"] += scale * float64(ops.loads)
	m["mir.stores"] += scale * float64(ops.stores)
	m["mir.derives"] += scale * float64(ops.derives)
	m["mir.casts"] += scale * float64(ops.casts)
	m["core.type_malloc_calls"] += scale * float64(env.mallocs)
	m["core.type_malloc_s"] += scale * env.mallocDur.Seconds()
	m["core.type_free_s"] += scale * env.freeDur.Seconds()
}

// runOpts sets how long and how a workload runs.
type runOpts struct {
	seconds   float64 // measure passes until this much time has passed
	setupReps int     // setups (input generation + one cold pass) to time
	minPasses int     // measured passes to run however long they take
	trace     bool    // alternate untraced and traced passes
}

// runData is everything one run of a workload measured.
type runData struct {
	w        *workload
	seed     int64
	opts     runOpts
	setups   []float64 // each setup's time in reference seconds
	passes   []passRec
	r        *runner
	profiles [][]byte // CPU profile of each traced pass
	// cpu weights the traced passes' profiled CPU time by category.
	cpu     map[string]float64
	gcShare float64 // GC share of the process's CPU while measuring
}

// measure runs one workload: the timed setups, then passes until
// opts.seconds have passed.
func measure(w *workload, seed int64, opts runOpts) (*runData, error) {
	rd := &runData{w: w, seed: seed, opts: opts, cpu: map[string]float64{}}
	r := newRunner(w, seed)
	rd.r = r
	if opts.trace {
		r.tr = newTracer()
	}
	for i := 0; i < opts.setupReps; i++ {
		start := time.Now()
		r.progs = w.inputs()
		gen := time.Since(start)
		r.tr.add("bench.inputs", 0, 0, -1-i, start, start.Add(gen))
		p := r.pass(-1-i, false)
		rd.setups = append(rd.setups, (gen+p.work()).Seconds()*p.scale)
	}
	if r.progs == nil {
		r.progs = w.inputs()
	}

	cpu0 := readCPUMetrics()
	deadline := time.Now().Add(time.Duration(opts.seconds * float64(time.Second)))
	for n := 1; n <= opts.minPasses || time.Now().Before(deadline); n++ {
		traced := opts.trace && n%2 == 0
		var buf bytes.Buffer
		if traced {
			if err := pprof.StartCPUProfile(&buf); err != nil {
				return nil, fmt.Errorf("cpu profile: %w", err)
			}
		}
		rd.passes = append(rd.passes, r.pass(n, traced))
		if traced {
			pprof.StopCPUProfile()
			if err := addProfile(buf.Bytes(), rd.cpu); err != nil {
				return nil, err
			}
			rd.profiles = append(rd.profiles, buf.Bytes())
		}
	}
	cpu1 := readCPUMetrics()
	if total := cpu1[1] - cpu0[1]; total > 0 {
		rd.gcShare = (cpu1[0] - cpu0[0]) / total
	}
	return rd, nil
}

// The runtime/metrics counters the passes read.
const (
	heapAllocs = "/gc/heap/allocs:bytes"
	gcCycles   = "/gc/cycles/total:gc-cycles"
)

// readMetric reads one cumulative uint64 runtime metric.
func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// readCPUMetrics returns the Go runtime's estimates of GC and total CPU
// seconds.
func readCPUMetrics() [2]float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return [2]float64{s[0].Value.Float64(), s[1].Value.Float64()}
}
