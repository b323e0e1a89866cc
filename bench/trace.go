package main

import (
	"time"

	"repro/internal/core"
	"repro/internal/ctypes"
	"repro/internal/mir"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Every span of one (pass, program) shares a trace id; spans of
// the pass itself carry trace 0.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a pass's root span
	Trace  int    `json:"trace"`
	Pass   int    `json:"pass"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced passes call the same code.
type tracer struct {
	t0     time.Time
	spans  []span
	traces int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newTrace returns a fresh trace id for one (pass, program).
func (t *tracer) newTrace() int {
	if t == nil {
		return 0
	}
	t.traces++
	return t.traces
}

// open starts a span whose end is set later by close, so its children can
// name it as their parent. It returns the span's id.
func (t *tracer) open(name string, parent, trace, pass int, start time.Time) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Pass: pass,
		Name: name, Start: start.Sub(t.t0).Nanoseconds()})
	return id
}

func (t *tracer) close(id int, end time.Time) {
	if t == nil {
		return
	}
	t.spans[id-1].End = end.Sub(t.t0).Nanoseconds()
}

// add records a finished span.
func (t *tracer) add(name string, parent, trace, pass int, start, end time.Time) {
	t.close(t.open(name, parent, trace, pass, start), end)
}

// selfTimes returns, per traced pass, every span name's self time in
// seconds — its duration minus the part its child spans cover — and the
// share of each pass span its children cover.
func (t *tracer) selfTimes() (self map[int]map[string]float64, coverage map[int]float64) {
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self = map[int]map[string]float64{}
	coverage = map[int]float64{}
	for _, s := range t.spans {
		if self[s.Pass] == nil {
			self[s.Pass] = map[string]float64{}
		}
		d := s.End - s.Start
		self[s.Pass][s.Name] += float64(d-child[s.ID]) / 1e9
		if s.Parent == 0 && d > 0 {
			coverage[s.Pass] = float64(child[s.ID]) / float64(d)
		}
	}
	return self, coverage
}

// timedEnv wraps the EffectiveSan environment of a traced run and sums
// the time spent in type_malloc/type_free (Realloc counts as a malloc)
// without recording a span per call.
type timedEnv struct {
	mir.Env
	mallocs, frees     uint64
	mallocDur, freeDur time.Duration
}

func (e *timedEnv) Malloc(t *ctypes.Type, size uint64, kind core.AllocKind, site string) uint64 {
	start := time.Now()
	p := e.Env.Malloc(t, size, kind, site)
	e.mallocDur += time.Since(start)
	e.mallocs++
	return p
}

func (e *timedEnv) Realloc(p uint64, size uint64, site string) uint64 {
	start := time.Now()
	q := e.Env.Realloc(p, size, site)
	e.mallocDur += time.Since(start)
	e.mallocs++
	return q
}

func (e *timedEnv) Free(p uint64, site string) {
	start := time.Now()
	e.Env.Free(p, site)
	e.freeDur += time.Since(start)
	e.frees++
}

// opCounter is a mir.Hooks that only counts the interpreter's memory
// operations. It observes and never reports.
type opCounter struct {
	loads, stores, derives, casts uint64
}

func (c *opCounter) Access(_, _ uint64, write bool, _ *ctypes.Type, _ string) {
	if write {
		c.stores++
	} else {
		c.loads++
	}
}

func (c *opCounter) Cast(uint64, *ctypes.Type, *ctypes.Type, string) { c.casts++ }

func (c *opCounter) Derive(uint64, uint64, bool, uint64, uint64, string) { c.derives++ }

func (c *opCounter) PtrStore(uint64, uint64, string) {}

func (c *opCounter) PtrLoad(uint64, uint64, string) {}
