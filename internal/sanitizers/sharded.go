package sanitizers

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/instrument"
	"repro/internal/lowfat"
	"repro/internal/mir"
)

// This file is the sharded multi-threaded execution mode behind every
// Fig. 10 series (the browser bars, §6.3, and the scalability curves): a
// worker pool that partitions a workload's job corpus across N
// goroutines, each driving its own MIR interpreter against one shared
// core.Runtime. The shared runtime is the point — the workers contend on
// the real structures (sharded check cache, COW layout cache, type
// registry, per-site inline caches, allocator) the way a production
// multi-tenant service would, while statistics stay per-worker through
// Runtime.StatsView.

// WorkerStats reports one worker goroutine's share of a sharded run.
type WorkerStats struct {
	Worker int                `json:"worker"` // worker index, 0-based
	Jobs   int                `json:"jobs"`   // jobs this worker completed
	BusyNs int64              `json:"busy_ns"`
	Stats  core.StatsSnapshot `json:"-"` // this worker's runtime counters
	// Magazine reports the worker's heap-magazine activity:
	// Allocs/Refills is the lock-amortization ratio the per-worker heap
	// buys.
	Magazine lowfat.MagazineStats `json:"magazine"`
}

// Busy is the time the worker spent executing jobs (including idle tail
// waiting for nothing: the pool is work-stealing via a shared queue, so
// busy ≈ lifetime of the worker's loop).
func (w WorkerStats) Busy() time.Duration { return time.Duration(w.BusyNs) }

// ShardedResult reports one ExecSharded run.
type ShardedResult struct {
	Threads int
	Jobs    int
	Wall    time.Duration // wall-clock for the whole pool
	Value   uint64        // entry result of job 0
	Workers []WorkerStats
	// Stats is the aggregate across workers (field-wise sum of the
	// per-worker snapshots; also folded into the runtime's own sink).
	Stats core.StatsSnapshot
	// InstrStats reports the shared instrumentation pass (the program
	// is instrumented once, not per worker; zero for the uninstrumented
	// baseline).
	InstrStats instrument.Stats
	Reporter   *core.Reporter
	HeapPeak   uint64 // peak live heap bytes of the shared allocator
	MemPages   int64  // simulated memory materialised (bytes)
}

// TotalBusy sums the workers' busy time — the CPU-time analogue used for
// per-check cost under contention.
func (r *ShardedResult) TotalBusy() time.Duration {
	var d time.Duration
	for _, w := range r.Workers {
		d += w.Busy()
	}
	return d
}

// ExecSharded runs `jobs` executions of prog's entry function on a pool
// of `threads` worker goroutines sharing one environment. EffectiveSan
// variants share a single core.Runtime (one central heap, one reporter,
// one set of caches) with a per-worker statistics view and a per-worker
// heap magazine, so steady-state Alloc/Free never takes the central
// heap's mutex; the uninstrumented baseline shares a single plain
// environment, with a per-worker magazine too.
// Hook-based baseline sanitizers are not supported (their shadow state
// is not thread-safe, the same reason the real tools cannot run
// Firefox, §6.3).
//
// Jobs are handed out from a shared atomic queue, so workers that finish
// early steal the remainder; each worker runs its own interpreter (its
// own globals and registers) over the shared memory, like independent
// browser sessions above one runtime.
func (t *Tool) ExecSharded(prog *mir.Program, entry string, jobs, threads int, out io.Writer) (*ShardedResult, error) {
	if t.MakeSan != nil {
		return nil, fmt.Errorf("sanitizers: %s is a hook-based baseline; sharded execution supports only the EffectiveSan variants and the uninstrumented baseline", t.Name)
	}
	if threads < 1 {
		threads = 1
	}
	if jobs < 1 {
		jobs = threads
	}
	if out == nil {
		out = io.Discard
	}
	if out != io.Discard && threads > 1 {
		out = &lockedWriter{w: out}
	}

	res := &ShardedResult{Threads: threads, Jobs: jobs, Workers: make([]WorkerStats, threads)}

	// Build the shared substrate once: every worker runs the same
	// (instrumented) program over the same runtime or plain heap.
	sub, err := t.newSubstrate(prog, entry)
	if err != nil {
		return nil, err
	}
	res.InstrStats, res.Reporter = sub.instrStats, sub.reporter

	var (
		next     atomic.Int64
		value    atomic.Uint64
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	start := time.Now()
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ws := &res.Workers[w]
			ws.Worker = w
			mag := sub.heap.NewMagazine()
			sink := &core.Stats{}
			in, err := sub.interp(mag, sink, out)
			if err != nil {
				errOnce.Do(func() { firstErr = err })
				return
			}
			begin := time.Now()
			for {
				j := next.Add(1) - 1
				if j >= int64(jobs) {
					break
				}
				v, err := in.Run(entry)
				if err != nil {
					errOnce.Do(func() { firstErr = fmt.Errorf("worker %d job %d: %w", w, j, err) })
					break
				}
				if j == 0 {
					value.Store(v)
				}
				ws.Jobs++
			}
			ws.BusyNs = time.Since(begin).Nanoseconds()
			// Return cached slots to the central heap so nothing is
			// stranded when the worker retires; canonical Stats never
			// depended on the flush (magazines account atomically at
			// operation time).
			mag.Flush()
			ws.Magazine = mag.Stats()
			ws.Stats = sink.Snapshot()
		}(w)
	}
	wg.Wait()
	res.Wall = time.Since(start)
	if firstErr != nil {
		return nil, firstErr
	}
	res.Value = value.Load()
	for i := range res.Workers {
		res.Stats = res.Stats.Add(res.Workers[i].Stats)
	}
	if sub.rt != nil {
		// Fold the aggregate back so the runtime's own sink reports the
		// whole run (views write past it during execution).
		sub.rt.MergeStats(res.Stats)
	}
	res.HeapPeak, res.MemPages = sub.heapStats()
	return res, nil
}

// lockedWriter serialises worker output when a sharded run is given a
// real writer (interleaved OpPuts lines stay whole).
type lockedWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (lw *lockedWriter) Write(p []byte) (int, error) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	return lw.w.Write(p)
}
