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

// TestSelectExperiments pins the -experiment names: each listed name
// selects itself, all selects every experiment but the solo difftest,
// and a name the list lacks is a usage error instead of a silent no-op.
func TestSelectExperiments(t *testing.T) {
	all, err := selectExperiments("all")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(experiments)-1 {
		t.Errorf("all selects %d experiments, want %d", len(all), len(experiments)-1)
	}
	for _, e := range all {
		if e.solo {
			t.Errorf("all selects the solo experiment %s", e.name)
		}
	}
	for _, e := range experiments {
		got, err := selectExperiments(e.name)
		if err != nil || len(got) != 1 || got[0].name != e.name {
			t.Errorf("selectExperiments(%q) = %v, %v; want just %s", e.name, got, err, e.name)
		}
	}
	if _, err := selectExperiments("nosuch"); err == nil {
		t.Error("unknown experiment accepted")
	}
}
