package spec

import "repro/internal/progen"

// Synthetic returns the progen-generated workloads that join the
// Fig. 8 timing rows (but not the Fig. 7 table, whose 19 rows mirror
// the paper). The hand-written Fig. 7 kernels resolve almost all
// checks on the exact-match fast path and re-check mostly under a
// dominating block, so three generated shapes target the optimiser
// levels the kernels miss:
//
//   - progen-diamond: branch-heavy helpers that dereference both
//     pointer parameters on each arm and again at every join — the
//     join re-checks are redundant on every incoming path but
//     dominated by no earlier check, so only a path-sensitive
//     dataflow pass elides them (a dominator-tree walk keeps them;
//     the tests pin that gap against recorded counts);
//   - progen-interior: hot checks arrive through interior pointers
//     (array fields inside heap structs), resolving at sub-object
//     offsets that miss the exact-match fast path and land on the
//     per-site inline caches;
//   - progen-staticsafe: constant-extent globals and locals walked by
//     provably-bounded loops and monomorphic downcasts — every check
//     is in-bounds by static reasoning alone and covered by no
//     dominating dynamic check, so only the interprocedural abstract
//     interpretation removes them (the "no-static" Fig. 8 bar keeps
//     them, pricing the static safety pass).
func Synthetic() []*Benchmark {
	return []*Benchmark{
		{
			Name: "progen-diamond",
			// Diamonds and Rounds are sized so the diamond joins, not the
			// shared sweep/list scaffolding, dominate the check count —
			// the path-sensitive pass's gap over a dominator-tree walk
			// must be visible in InstrStats and the dynamic check
			// counters, not inferred from wall-clock noise.
			Source: progen.Generate(41, progen.Options{
				Types: 2, Funcs: 1, Rounds: 48, Diamonds: 12,
			}),
			Entry: "main",
		},
		{
			Name: "progen-interior",
			Source: progen.Generate(43, progen.Options{
				Types: 3, Funcs: 1, Rounds: 24, Interior: true,
			}),
			Entry: "main",
		},
		{
			Name: "progen-staticsafe",
			Source: progen.Generate(67, progen.Options{
				Types: 1, Funcs: 1, Rounds: 48, StaticSafe: true,
			}),
			Entry: "main",
		},
	}
}

// AllocHeavy returns the allocation-bound workload behind the magazine
// tests: tight malloc/free churn loops across mixed size classes
// (progen.Options.AllocHeavy), so a sharded run is gated by the heap's
// locking discipline rather than by check volume. It is kept out of
// Synthetic() — it exercises the allocator, not the check optimiser, so
// it is not a Fig. 8 bar.
func AllocHeavy() *Benchmark {
	return &Benchmark{
		Name: "progen-alloc",
		Source: progen.Generate(47, progen.Options{
			Types: 2, Funcs: 1, Rounds: 24, AllocHeavy: true,
		}),
		Entry: "main",
	}
}

// LibCalls returns the library-call-heavy workload driving the libc
// intrinsics (progen.Options.LibCalls, clean calls only — no LibFaults):
// memset/memcpy/memmove walks, strcpy/strncpy/strlen over terminated
// buffers and qsort re-entering the interpreter through its comparator.
// It is kept out of Synthetic() — it prices the intrinsic introspection
// layer, not the check optimiser, so it joins the effbench ablations
// instead of the Fig. 8 bars.
func LibCalls() *Benchmark {
	return &Benchmark{
		Name: "progen-libcalls",
		Source: progen.Generate(61, progen.Options{
			Types: 2, Funcs: 1, Rounds: 32, LibCalls: true,
		}),
		Entry: "main",
	}
}

// SyntheticByName returns the named synthetic workload (including the
// alloc-heavy and libcalls ones), or nil.
func SyntheticByName(name string) *Benchmark {
	for _, b := range append(Synthetic(), AllocHeavy(), LibCalls()) {
		if b.Name == name {
			return b
		}
	}
	return nil
}
