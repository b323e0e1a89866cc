//go:build race

package mir_test

// raceEnabled reports whether the race detector instruments this build;
// it allocates on its own, so allocation guards skip under it.
const raceEnabled = true
