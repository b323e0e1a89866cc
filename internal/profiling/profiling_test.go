package profiling

import (
	"os"
	"path/filepath"
	"testing"
)

// TestStartStop checks that stop writes both profiles, and that a
// second stop does nothing.
func TestStartStop(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	stop, err := Start("test", cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	sink := make([][]byte, 0, 64)
	for i := 0; i < 64; i++ {
		sink = append(sink, make([]byte, 1<<10))
	}
	_ = sink
	stop()
	for _, p := range []string{cpu, mem} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s not written (%v)", p, err)
		}
	}
	if err := os.Remove(mem); err != nil {
		t.Fatal(err)
	}
	stop()
	if _, err := os.Stat(mem); !os.IsNotExist(err) {
		t.Errorf("second stop rewrote %s", mem)
	}
}

// TestStartBadPath returns the create error and a stop that does nothing.
func TestStartBadPath(t *testing.T) {
	stop, err := Start("test", filepath.Join(t.TempDir(), "missing", "cpu.pprof"), "")
	if err == nil {
		t.Fatal("Start into a missing directory succeeded")
	}
	stop()
}
