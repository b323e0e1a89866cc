package main

import (
	"fmt"

	"repro/internal/progen"
	"repro/internal/spec"
)

// program is one input of a workload: a mini-C source, its entry point
// and the number of distinct issues EffectiveSan must report on it.
type program struct {
	name   string
	src    string
	entry  string
	issues int
}

// workload is one set of inputs the benchmark runs, pass after pass, in
// a closed loop from one process.
type workload struct {
	name string
	// sharded runs both configurations through sanitizers.ExecSharded
	// with shardJobs jobs on shardThreads workers instead of one
	// single-threaded interpreter.
	sharded bool
	// inputs generates the workload's programs.
	inputs func() []program
}

// The alloc workload's pool shape: 16 runs of the entry per pass on two
// workers, the most threads the benchmark uses.
const (
	shardJobs    = 16
	shardThreads = 2
)

// generated returns the progen program of the given seed. Inputs do not
// depend on the benchmark seed: the seed only orders each pass. Programs
// drawn from another progen seed differ in how much work they do by 12–36%
// each, so a workload of a few of them changes its total work by 10–28%
// from seed to seed — more than any bound could absorb.
func generated(prefix string, seed int64, opts progen.Options) program {
	return program{
		name:  fmt.Sprintf("%s-%d", prefix, seed),
		src:   progen.Generate(seed, opts),
		entry: "main",
	}
}

var workloads = []*workload{
	// The 19 Fig. 7 kernels: interpreter run time and bounds checks
	// dominate, and type checks take the exact-match fast path.
	{
		name: "spec",
		inputs: func() []program {
			var ps []program
			for _, b := range spec.Benchmarks() {
				ps = append(ps, program{name: b.Name, src: b.Source, entry: b.Entry, issues: b.PaperIssues})
			}
			return ps
		},
	},
	// Type checks resolve at sub-object offsets, through the per-site
	// inline caches; run time is about twice instrumentation.
	{
		name: "checks",
		inputs: func() []program {
			var ps []program
			for k := int64(1); k <= 4; k++ {
				ps = append(ps, generated("checks", k, progen.Options{
					Types: 3, Rounds: 1600, Interior: true, Diamonds: 2,
					LoopHeavy: true, TempHeavy: true, LibCalls: true,
				}))
			}
			return append(ps, generated("types", 5, progen.Options{TypeExplosion: 256, Rounds: 40}))
		},
	},
	// Large programs with short runs: instrumentation and its static
	// analysis dominate and the runtime layers are nearly idle.
	{
		name: "compile",
		inputs: func() []program {
			var ps []program
			for k := int64(1); k <= 8; k++ {
				opts := progen.Options{Types: 4, Funcs: 2, Rounds: 256, Diamonds: 4, Interior: true}
				switch k % 4 {
				case 1:
					opts.LoopHeavy = true
				case 2:
					opts.TempHeavy = true
				case 3:
					opts.StaticSafe = true
				case 0:
					opts.LibCalls = true
				}
				ps = append(ps, generated("compile", k, opts))
			}
			return ps
		},
	},
	// Malloc/free churn across size classes on two workers sharing one
	// runtime through per-worker magazines: the only concurrent path.
	{
		name:    "alloc",
		sharded: true,
		inputs: func() []program {
			var ps []program
			for k := int64(1); k <= 4; k++ {
				ps = append(ps, generated("alloc", k, progen.Options{Types: 2, Rounds: 128, AllocHeavy: true}))
			}
			return ps
		},
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
