// Package difftest is the differential-fuzz oracle loop for the libc
// intrinsics layer (and, transitively, the whole check-optimisation
// stack). The oracle is the single-threaded configuration: full
// instrumentation, every §5.3 optimisation on, logging reporter, a
// quarantine large enough that no slot is recycled. Every other
// configuration — the Fig. 8 elision/caching/motion ablations and the
// sharded §6.1 pool at 1..8 workers, magazines on and off — must agree
// with the oracle byte for byte on two observables:
//
//   - the VALUE the program computes (checks observe, they never change
//     the operation — the intrinsics run their operation half
//     identically whether or not introspection is armed), and
//   - the REPORT SIGNATURE: the sorted set of distinct issue buckets
//     (kind, static type, dynamic type, normalised offset). Counts and
//     first-report sites are deliberately excluded — optimised
//     configurations coalesce or relocate reports (a hoisted check
//     fires in the preheader, an elided re-check folds into the
//     dominating site's count, sharded workers race for first place) —
//     that location/count coarsening is the documented slack; the
//     buckets themselves are not allowed to differ.
//
// Inputs are progen programs (LibCalls, optionally LibFaults plus the
// other workload shapes), encoded for the native Go fuzzer as 8 bytes of
// little-endian seed followed by one option byte. Failures shrink to a
// minimal option set and are written as fuzz-corpus reproducer files.
package difftest

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/ctypes"
	"repro/internal/mir"
	"repro/internal/progen"
	"repro/internal/sanitizers"
)

// oracleQuarantine keeps every freed slot quarantined for the whole run,
// so no configuration's report set can depend on slot recycling order.
const oracleQuarantine = 1 << 28

func fullTool() *sanitizers.Tool {
	cp := *sanitizers.ToolEffectiveSan
	cp.Runtime.Quarantine = oracleQuarantine
	return &cp
}

// Config is one cell of the differential matrix.
type Config struct {
	Name string
	Tool *sanitizers.Tool
	// Threads <= 1 runs the classic single-threaded Exec; > 1 runs the
	// sharded pool with one job per worker.
	Threads int
}

// Matrix returns the differential matrix, oracle first, then one cell
// per sanitizers.Ablations row on the oracle's quarantine, then the
// sharded pool. All entries are Full-variant (detection capability
// identical by construction); the cells differ only in how checks are
// elided, moved, cached, and on how many workers they run. The
// no-static cell is the static analysis' soundness witness: anything a
// check it deleted would have reported is a disagreement.
func Matrix() []Config {
	full := fullTool()
	cfgs := []Config{{Name: "oracle", Tool: full}}
	for _, a := range sanitizers.Ablations() {
		cfgs = append(cfgs, Config{Name: a.Short, Tool: a.On(full)})
	}
	noMag := *full
	noMag.NoMagazines = true
	return append(cfgs,
		Config{Name: "sharded-2", Tool: full, Threads: 2},
		Config{Name: "sharded-4", Tool: full, Threads: 4},
		Config{Name: "sharded-8", Tool: full, Threads: 8},
		Config{Name: "sharded-4-no-magazines", Tool: &noMag, Threads: 4})
}

// Signature renders the reporter's distinct issue buckets as a sorted,
// deduplicated list of "kind|static|dynamic|offset" strings. Count and
// FirstSite are excluded — that is the documented report-location
// coarsening the optimised configurations are allowed.
func Signature(issues []*core.Issue) []string {
	set := make(map[string]struct{}, len(issues))
	for _, is := range issues {
		set[fmt.Sprintf("%s|%s|%s|%d", is.Kind, is.StaticType, is.DynamicType, is.Offset)] = struct{}{}
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Run executes prog's main under one matrix cell and returns the two
// differential observables.
func Run(prog *mir.Program, cfg Config) (uint64, []string, error) {
	if cfg.Threads > 1 {
		sr, err := cfg.Tool.ExecSharded(prog, "main", cfg.Threads, cfg.Threads, io.Discard)
		if err != nil {
			return 0, nil, fmt.Errorf("%s: %w", cfg.Name, err)
		}
		return sr.Value, Signature(sr.Reporter.Issues()), nil
	}
	res, err := cfg.Tool.Exec(prog, "main", io.Discard)
	if err != nil {
		return 0, nil, fmt.Errorf("%s: %w", cfg.Name, err)
	}
	return res.Value, Signature(res.Reporter.Issues()), nil
}

// Mismatch describes one configuration's disagreement with the oracle.
type Mismatch struct {
	Config string // the disagreeing configuration
	Field  string // "value" or "reports"
	Want   string // the oracle's observable
	Got    string // the disagreeing configuration's observable
}

func (m *Mismatch) String() string {
	return fmt.Sprintf("config %q disagrees with oracle on %s:\n  oracle: %s\n  got:    %s",
		m.Config, m.Field, m.Want, m.Got)
}

// Check runs prog through the whole matrix plus the uninstrumented
// interpreter and returns the first disagreement, or nil if every
// configuration agrees. An error means infrastructure failure (the
// program itself crashed a configuration), which is its own kind of
// differential bug and is never swallowed.
func Check(prog *mir.Program) (*Mismatch, error) {
	cfgs := Matrix()
	oVal, oSig, err := Run(prog, cfgs[0])
	if err != nil {
		return nil, err
	}
	oJoined := strings.Join(oSig, " ; ")

	// The uninstrumented interpreter pins the operation half: checks
	// must not have changed what the program computes.
	plain, err := sanitizers.ToolUninstrumented.Exec(prog, "main", io.Discard)
	if err != nil {
		return nil, fmt.Errorf("uninstrumented: %w", err)
	}
	if plain.Value != oVal {
		return &Mismatch{Config: "uninstrumented", Field: "value",
			Want: fmt.Sprint(oVal), Got: fmt.Sprint(plain.Value)}, nil
	}

	for _, cfg := range cfgs[1:] {
		v, sig, err := Run(prog, cfg)
		if err != nil {
			return nil, err
		}
		if v != oVal {
			return &Mismatch{Config: cfg.Name, Field: "value",
				Want: fmt.Sprint(oVal), Got: fmt.Sprint(v)}, nil
		}
		if got := strings.Join(sig, " ; "); got != oJoined {
			return &Mismatch{Config: cfg.Name, Field: "reports",
				Want: oJoined, Got: got}, nil
		}
	}
	return nil, nil
}

// Fuzz-input encoding: 8 bytes little-endian seed, one option byte.
// LibCalls is always on; the option byte toggles the other workload
// shapes so the fuzzer explores interactions between the intrinsics and
// the elision/motion/cache machinery:
//
//	bit 0  LibFaults   bit 3  TempHeavy
//	bit 1  Diamonds    bit 4  LoopHeavy
//	bit 2  Interior    bit 5  AllocHeavy
//	bits 6-7  Rounds-1 (1..4)
//
// An optional tenth byte extends the option space (older 9-byte corpus
// entries stay valid): bit 0 toggles the StaticSafe workload, the
// provably-bounded walks the static safety analysis deletes checks
// from, so the no-static cell gets inputs where the two sides actually
// differ in instruction count.
//
// An optional eleventh byte scales the TypeExplosion population in
// steps of 24 shapes (bits 0-2, so up to 168): these inputs build many
// layout tables, most sharing an interned core, so structural interning
// answers checks under the oracle's eye. Ten-byte (and nine-byte)
// corpus entries still decode, with the population at zero.
const inputLen = 9

// DecodeInput parses a fuzz input. ok is false for short inputs (the
// fuzzer's mutations below 9 bytes are skipped, not failed).
func DecodeInput(data []byte) (seed int64, opts progen.Options, ok bool) {
	if len(data) < inputLen {
		return 0, progen.Options{}, false
	}
	seed = int64(binary.LittleEndian.Uint64(data[:8]))
	b := data[8]
	opts = progen.Options{
		Types: 1, Funcs: 1, Rounds: 1 + int(b>>6),
		LibCalls:   true,
		LibFaults:  b&1 != 0,
		Interior:   b&4 != 0,
		TempHeavy:  b&8 != 0,
		LoopHeavy:  b&16 != 0,
		AllocHeavy: b&32 != 0,
	}
	if b&2 != 0 {
		opts.Diamonds = 1
	}
	if len(data) > inputLen && data[inputLen]&1 != 0 {
		opts.StaticSafe = true
	}
	if len(data) > inputLen+1 {
		opts.TypeExplosion = 24 * int(data[inputLen+1]&7)
	}
	return seed, opts, true
}

// EncodeInput is the inverse of DecodeInput (for seeding the corpus and
// writing reproducers).
func EncodeInput(seed int64, opts progen.Options) []byte {
	data := make([]byte, inputLen+2)
	binary.LittleEndian.PutUint64(data[:8], uint64(seed))
	var b byte
	if opts.LibFaults {
		b |= 1
	}
	if opts.Diamonds > 0 {
		b |= 2
	}
	if opts.Interior {
		b |= 4
	}
	if opts.TempHeavy {
		b |= 8
	}
	if opts.LoopHeavy {
		b |= 16
	}
	if opts.AllocHeavy {
		b |= 32
	}
	r := opts.Rounds - 1
	if r < 0 {
		r = 0
	}
	if r > 3 {
		r = 3
	}
	b |= byte(r) << 6
	data[8] = b
	if opts.StaticSafe {
		data[9] |= 1
	}
	x := opts.TypeExplosion / 24
	if x > 7 {
		x = 7
	}
	if x > 0 {
		data[10] = byte(x)
	}
	return data
}

// Build generates and compiles the progen program for one fuzz input.
func Build(seed int64, opts progen.Options) (*mir.Program, error) {
	src := progen.Generate(seed, opts)
	prog, err := cc.Compile(src, ctypes.NewTable())
	if err != nil {
		return nil, fmt.Errorf("progen seed %d: generated program failed to compile: %w", seed, err)
	}
	return prog, nil
}

// Fails reports whether the input still produces a differential
// disagreement (the shrinker's predicate). Infrastructure errors count
// as failing — a shrink step that trades a mismatch for a crash is
// still a reproducer.
func Fails(seed int64, opts progen.Options) bool {
	prog, err := Build(seed, opts)
	if err != nil {
		return true
	}
	mm, err := Check(prog)
	return err != nil || mm != nil
}

// Shrink greedily minimises a failing input: it tries switching off each
// optional workload dimension and flattening Rounds, keeping any
// reduction that still fails, until a fixpoint. LibCalls stays on (it is
// the surface under test). The returned options are the minimal still-
// failing configuration for the same seed.
func Shrink(seed int64, opts progen.Options) progen.Options {
	reductions := []func(*progen.Options){
		// TypeExplosion first: it dominates program size, so dropping it
		// early makes every later Fails probe cheap.
		func(o *progen.Options) { o.TypeExplosion = 0 },
		func(o *progen.Options) { o.StaticSafe = false },
		func(o *progen.Options) { o.AllocHeavy = false },
		func(o *progen.Options) { o.LoopHeavy = false },
		func(o *progen.Options) { o.TempHeavy = false },
		func(o *progen.Options) { o.Interior = false },
		func(o *progen.Options) { o.Diamonds = 0 },
		func(o *progen.Options) { o.LibFaults = false },
		func(o *progen.Options) { o.Rounds = 1 },
	}
	for changed := true; changed; {
		changed = false
		for _, reduce := range reductions {
			cand := opts
			reduce(&cand)
			if cand != opts && Fails(seed, cand) {
				opts = cand
				changed = true
			}
		}
	}
	return opts
}

// WriteReproducer writes the input as a native Go fuzz corpus file under
// dir (created if needed) and returns the path. The file can be replayed
// directly:
//
//	cp <path> internal/difftest/testdata/fuzz/FuzzDifferentialConfigs/
//	go test -run 'FuzzDifferentialConfigs' ./internal/difftest
func WriteReproducer(dir string, seed int64, opts progen.Options) (string, error) {
	data := EncodeInput(seed, opts)
	body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("shrunk-seed%d-opts%02x%02x%02x", seed, data[8], data[9], data[10]))
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		return "", err
	}
	return path, nil
}
