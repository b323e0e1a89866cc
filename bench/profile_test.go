package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

// spin burns CPU in this package for d.
func spin(d time.Duration) uint64 {
	x := uint64(1)
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 10000; i++ {
			x = xorshift(x)
		}
	}
	return x
}

func TestProfileAttribution(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	spin(500 * time.Millisecond)
	pprof.StopCPUProfile()
	weights := map[string]float64{}
	if err := addProfile(buf.Bytes(), weights); err != nil {
		t.Fatal(err)
	}
	sh := shares(weights)
	var sum float64
	for _, v := range sh {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("cpu shares sum to %v, want 1", sum)
	}
	if len(sh) != len(cpuLayers) {
		t.Errorf("%d shares, want one per category (%d)", len(sh), len(cpuLayers))
	}
	if sh["cpu.bench"] < 0.5 {
		t.Errorf("cpu.bench = %v, want >= 0.5 (shares %v)", sh["cpu.bench"], sh)
	}
}

func TestAttribute(t *testing.T) {
	for _, tc := range []struct {
		stack []frame
		want  string
	}{
		{[]frame{{"repro/internal/mir.(*Interp).exec", "repro/internal/mir/interp.go"}}, "mir.interp"},
		{[]frame{{"repro/internal/mir.(*EffEnv).Malloc", "/src/internal/mir/env.go"}}, "mir.interp"},
		{[]frame{{"repro/internal/mir.AnalyzeSafety", "repro/internal/mir/absint.go"}}, "mir.analysis"},
		{[]frame{{"repro/internal/core.(*Runtime).TypeCheckAt", "x"}}, "core"},
		{[]frame{{"repro/internal/progen.Generate", "x"}}, "other"},
		{[]frame{{"runtime.memmove", "x"}, {"repro/internal/mem.(*Memory).Copy", "x"}}, "go.other"},
		{[]frame{{"runtime.memclrNoHeapPointers", "x"}, {"runtime.mallocgc", "x"}, {"repro/internal/cc.Compile", "x"}}, "go.alloc"},
		{[]frame{{"runtime.scanobject", "x"}, {"runtime.gcAssistAlloc", "x"}, {"runtime.mallocgc", "x"}}, "go.gc"},
		{[]frame{{"main.spin", "x"}}, "bench"},
		{[]frame{{"sort.Slice", "x"}}, "other"},
		{[]frame{{"repro/internal/layout.lookup[go.shape.int]", "x"}}, "layout"},
		{nil, "other"},
	} {
		if got := attribute(tc.stack); got != tc.want {
			t.Errorf("attribute(%v) = %s, want %s", tc.stack, got, tc.want)
		}
	}
}
