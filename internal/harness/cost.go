package harness

import "repro/internal/core"

// Unit costs of the Fig. 8 cost model, in nanoseconds: medians of nine
// runs each on a 2-vCPU Intel Xeon (go1.24, linux/amd64), measured once
// and never fitted to the paper's overheads.
//
//   - costInstr: one executed MIR instruction — BenchmarkInterpOps
//     (internal/mir) "walk", ns/instr, uninstrumented: arithmetic,
//     compare-and-branch, loads, stores and field/index derivation
//     (4.7–6.5).
//   - costFastPath, costInline, costMemo, costLayout: a type check's
//     runtime call, beyond its instruction, by the cascade level that
//     resolved it — BenchmarkTypeCheckCached (repo root), ns/op:
//     "fastpath" (50–55; median of five), "inline" (53–79), "shared"
//     (memo hits: 125–179) and "uncached" (layout-table matches:
//     165–228). The last three take the fast path on 1 check in 320.
//
// A passing bounds check, escape check or bounds narrow runs inline in
// the executor as one instruction, so its cost is its step; a
// BoundsGet (the bounds-only variant's metadata read) costs a fast-path
// check, the same header read with no table; type checks the cascade
// never reaches (null, legacy, coerced or failing pointers) cost a fast
// path too.
const (
	costInstr    = 5.7
	costFastPath = 53.0
	costInline   = 65.0
	costMemo     = 160.0
	costLayout   = 188.0
)

// RunCost is the cost model's price of a run, in nanoseconds: steps
// executed MIR instructions plus the runtime calls the checks in s made,
// each by how it resolved. It is a pure function of counts the run
// keeps anyway, so it is bit-reproducible and blind to fusion, memory
// layout and machine load.
func RunCost(steps uint64, s core.StatsSnapshot) float64 {
	levels := s.InlineCacheHits + s.CheckCacheHits + s.LayoutMatches
	fast := s.TypeChecks - levels + s.BoundsGets
	return costInstr*float64(steps) +
		costFastPath*float64(fast) +
		costInline*float64(s.InlineCacheHits) +
		costMemo*float64(s.CheckCacheHits) +
		costLayout*float64(s.LayoutMatches)
}
