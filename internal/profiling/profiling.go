// Package profiling writes the pprof profiles the command-line tools
// take with -cpuprofile and -memprofile.
package profiling

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start starts a CPU profile to cpuPath and returns stop, which ends it
// and writes an allocation profile to memPath; either path may be
// empty. stop reports its errors on stderr under the command name cmd;
// calls after the first do nothing. On error Start returns a stop that
// does nothing.
func Start(cmd, cpuPath, memPath string) (stop func(), err error) {
	var cpu *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return func() {}, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return func() {}, err
		}
		cpu = f
	}
	done := false
	return func() {
		if done {
			return
		}
		done = true
		if cpu != nil {
			pprof.StopCPUProfile()
			cpu.Close()
		}
		if memPath != "" {
			if err := writeAllocs(memPath); err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", cmd, err)
			}
		}
	}, nil
}

// writeAllocs writes the allocation profile to path.
func writeAllocs(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC() // settle the in-use view; alloc_space counts every allocation regardless
	return pprof.Lookup("allocs").WriteTo(f, 0)
}
