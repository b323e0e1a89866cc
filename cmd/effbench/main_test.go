package main

import "testing"

// TestDefaultThreads pins the -threads default: 16 on a large machine,
// the CPU count on a smaller one, never less than one worker.
func TestDefaultThreads(t *testing.T) {
	for _, c := range []struct{ cpus, want int }{
		{0, 1}, {1, 1}, {2, 2}, {15, 15}, {16, 16}, {64, 16},
	} {
		if got := defaultThreads(c.cpus); got != c.want {
			t.Errorf("defaultThreads(%d) = %d, want %d", c.cpus, got, c.want)
		}
	}
}
