// Package repro is a Go reproduction of "EffectiveSan: Type and Memory
// Error Detection using Dynamically Typed C/C++" (Gregory J. Duck and
// Roland H. C. Yap, PLDI 2018).
//
// The paper's primary contribution — dynamic type checking for C/C++ via
// low-fat pointers, per-allocation type metadata, the layout function
// L(T,k), and the Fig. 3 instrumentation schema — lives in
// internal/core, internal/layout, internal/lowfat and
// internal/instrument. The substrates it needs (a simulated 64-bit
// memory, a typed mini-C IR and interpreter, a mini-C frontend) and the
// evaluation apparatus (baseline sanitizer models, the error-injection
// corpus, the synthetic SPEC2006 and browser workloads, the experiment
// harness) fill out the rest of internal/.
//
// The runtime is multi-tenant: one core.Runtime safely serves many
// goroutines (the Fig. 10 browser sessions, run on the worker pool of
// sanitizers.ExecSharded), with per-worker statistics
// through Runtime.StatsView, per-worker heap magazines through
// Runtime.HeapView (batched refills over the central low-fat heap, so
// steady-state allocation takes no shared lock), and atomic core.Stats
// counters aggregated by the snapshot merge API.
//
// Start with README.md for the quickstart, the package map and how to
// read the regenerated figures. docs/ARCHITECTURE.md describes the check
// pipeline end to end — frontend → MIR → instrumentation → dataflow
// check elision → runtime — including the three-level §5.3 check
// cache (exact-match fast path → per-site inline caches → shared
// sharded cache), the concurrency & memory model, and every core.Stats
// counter. docs/BENCHMARKS.md is the measurement methodology: every
// effbench flag, knob combination, JSON schema and CI artifact. The
// benchmarks in bench_test.go regenerate every table and figure of the
// paper's evaluation; cmd/effbench renders them from the command line.
package repro
