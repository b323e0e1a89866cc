package main

import "testing"

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
