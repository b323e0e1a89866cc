package difftest

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bugsuite"
	"repro/internal/core"
	"repro/internal/progen"
)

// failuresDir is where shrunk reproducers land; CI uploads it as an
// artifact when a differential test fails.
var failuresDir = filepath.Join("testdata", "failures")

// reportMismatch shrinks a failing input, writes the reproducer, and
// fails the test with both the disagreement and the replay path.
func reportMismatch(t *testing.T, seed int64, opts progen.Options, mm *Mismatch) {
	t.Helper()
	min := Shrink(seed, opts)
	path, werr := WriteReproducer(failuresDir, seed, min)
	if werr != nil {
		path = fmt.Sprintf("(reproducer write failed: %v)", werr)
	}
	t.Errorf("seed %d opts %+v:\n%s\nshrunk reproducer: %s", seed, opts, mm, path)
}

// TestDifferentialOracle is the CI smoke of the oracle loop: 512 progen
// LibCalls programs (option byte swept across the whole encoding space,
// so LibFaults and every workload-shape interaction is covered) must
// agree byte for byte — value and report signature — across the entire
// matrix. Seeds are split into parallel chunks to keep wall-clock down.
func TestDifferentialOracle(t *testing.T) {
	const programs = 512
	const chunks = 16
	for c := 0; c < chunks; c++ {
		c := c
		t.Run(fmt.Sprintf("chunk-%02d", c), func(t *testing.T) {
			t.Parallel()
			for i := c; i < programs; i += chunks {
				seed := int64(40_000 + i)
				input := EncodeInput(seed, progen.Options{})
				input[8] = byte(i)     // sweep the whole option byte
				input[9] = byte(i & 1) // StaticSafe on half the programs
				if i%16 == 7 {
					// A 72-shape type explosion on a slice of the sweep:
					// many interned layout tables answer checks against
					// the oracle without slowing the other 15/16ths of
					// the loop.
					input[10] = 3
				}
				seed, opts, ok := DecodeInput(input)
				if !ok {
					t.Fatalf("i=%d: encode/decode broken", i)
				}
				prog, err := Build(seed, opts)
				if err != nil {
					t.Fatalf("i=%d: %v", i, err)
				}
				mm, err := Check(prog)
				if err != nil {
					t.Fatalf("i=%d seed %d opts %+v: %v", i, seed, opts, err)
				}
				if mm != nil {
					reportMismatch(t, seed, opts, mm)
				}
			}
		})
	}
}

// TestBugsuiteLibcAcrossConfigs runs every Expect-pinned bugsuite case
// (the CVE-shaped libc corpus) through the whole differential matrix:
// each configuration must report exactly the pinned kinds — detection
// must not depend on elision, caching, sharding, or magazines —
// and the full signature must agree with the oracle's.
func TestBugsuiteLibcAcrossConfigs(t *testing.T) {
	for _, c := range bugsuite.Cases() {
		if c.Expect == nil {
			continue
		}
		c := c
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			prog, err := c.Program()
			if err != nil {
				t.Fatal(err)
			}
			wantKinds := map[string]bool{}
			for _, k := range c.Expect {
				wantKinds[k.String()] = true
			}
			cfgs := Matrix()
			_, oSig, err := Run(prog, cfgs[0])
			if err != nil {
				t.Fatal(err)
			}
			for _, cfg := range cfgs {
				_, sig, err := Run(prog, cfg)
				if err != nil {
					t.Fatalf("%s: %v", cfg.Name, err)
				}
				gotKinds := map[string]bool{}
				for _, s := range sig {
					gotKinds[strings.SplitN(s, "|", 2)[0]] = true
				}
				for k := range wantKinds {
					if !gotKinds[k] {
						t.Errorf("%s: missed %s (signature %v)", cfg.Name, k, sig)
					}
				}
				for k := range gotKinds {
					if !wantKinds[k] {
						t.Errorf("%s: extra %s report (signature %v)", cfg.Name, k, sig)
					}
				}
				if got, want := strings.Join(sig, ";"), strings.Join(oSig, ";"); got != want {
					t.Errorf("%s: signature diverges from oracle:\n  oracle: %s\n  got:    %s",
						cfg.Name, want, got)
				}
			}
			if mm, err := Check(prog); err != nil {
				t.Fatal(err)
			} else if mm != nil {
				t.Errorf("value/report disagreement: %s", mm)
			}
		})
	}
}

// TestLibFaultsSignatureShape pins what the oracle actually sees on a
// faulting program: the signature is non-empty, contains the three
// intrinsic-found kinds, and every bucket key is address-free (pure
// kind|type|offset text, reproducible across runs and configs).
func TestLibFaultsSignatureShape(t *testing.T) {
	seed, opts, _ := DecodeInput(EncodeInput(7, progen.Options{LibFaults: true, Rounds: 1}))
	prog, err := Build(seed, opts)
	if err != nil {
		t.Fatal(err)
	}
	_, sig, err := Run(prog, Matrix()[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(sig) == 0 {
		t.Fatal("LibFaults program produced an empty oracle signature")
	}
	kinds := map[string]bool{}
	for _, s := range sig {
		kinds[strings.SplitN(s, "|", 2)[0]] = true
	}
	for _, want := range []core.ErrorKind{core.OverlapError, core.BoundsError, core.BadFree} {
		if !kinds[want.String()] {
			t.Errorf("signature missing %s kind:\n%v", want, sig)
		}
	}
	for _, s := range sig {
		if strings.Contains(s, "0x") {
			t.Errorf("bucket key looks address-dependent: %q", s)
		}
	}
}

// TestEncodeDecodeRoundTrip: every option byte survives the trip.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	for b := 0; b < 256; b++ {
		in := EncodeInput(99, progen.Options{})
		in[8] = byte(b)
		seed, opts, ok := DecodeInput(in)
		if !ok || seed != 99 {
			t.Fatalf("byte %#02x: decode failed", b)
		}
		out := EncodeInput(seed, opts)
		if out[8] != byte(b) {
			t.Fatalf("byte %#02x round-tripped to %#02x (opts %+v)", b, out[8], opts)
		}
	}
	// The tenth (extension) byte: bit 0 round-trips through StaticSafe,
	// and bare 9-byte inputs — the pre-extension corpus format — still
	// decode with it off.
	in := EncodeInput(99, progen.Options{StaticSafe: true})
	if in[9] != 1 {
		t.Fatalf("StaticSafe encoded to %#02x, want 1", in[9])
	}
	if _, opts, ok := DecodeInput(in); !ok || !opts.StaticSafe {
		t.Fatalf("StaticSafe lost in decode: %+v", opts)
	}
	if _, opts, ok := DecodeInput(in[:9]); !ok || opts.StaticSafe {
		t.Fatalf("9-byte legacy input decoded wrong: %+v", opts)
	}
	if _, _, ok := DecodeInput([]byte{1, 2, 3}); ok {
		t.Fatal("short input accepted")
	}
	// The eleventh (layout) byte: the TypeExplosion population encodes
	// in steps of 24, and both legacy widths — 9-byte and 10-byte
	// pre-extension corpus entries — decode with it at zero.
	in = EncodeInput(99, progen.Options{TypeExplosion: 48})
	if in[10] != 2 {
		t.Fatalf("TypeExplosion 48 encoded to %#02x, want 2", in[10])
	}
	if _, opts, ok := DecodeInput(in); !ok || opts.TypeExplosion != 48 {
		t.Fatalf("TypeExplosion lost in decode: %+v", opts)
	}
	for _, legacy := range [][]byte{in[:9], in[:10]} {
		if _, opts, ok := DecodeInput(legacy); !ok || opts.TypeExplosion != 0 {
			t.Fatalf("%d-byte legacy input decoded TypeExplosion %d, want 0",
				len(legacy), opts.TypeExplosion)
		}
	}
}

// TestShrinkReachesFixpoint: on a predicate that fails regardless of
// options, the shrinker must strip every optional dimension.
func TestShrinkReachesFixpoint(t *testing.T) {
	// Shrink consults the real Fails predicate, so drive it with an
	// input that does NOT fail and assert it returns unchanged...
	clean := progen.Options{Types: 1, Funcs: 1, Rounds: 1, LibCalls: true}
	if Fails(3, clean) {
		t.Fatal("baseline LibCalls program unexpectedly fails the matrix")
	}
	// ...and separately check the reduction order covers every optional
	// dimension by construction: a maximal option byte decodes to all
	// dimensions on, and re-encoding the all-off result is byte zero.
	_, maximal, _ := DecodeInput(EncodeInput(3, progen.Options{
		LibFaults: true, Diamonds: 1, Interior: true,
		TempHeavy: true, LoopHeavy: true, AllocHeavy: true,
		StaticSafe: true, TypeExplosion: 24, Rounds: 4,
	}))
	reduced := maximal
	reduced.LibFaults = false
	reduced.Diamonds = 0
	reduced.Interior = false
	reduced.TempHeavy = false
	reduced.LoopHeavy = false
	reduced.AllocHeavy = false
	reduced.StaticSafe = false
	reduced.TypeExplosion = 0
	reduced.Rounds = 1
	if got := EncodeInput(3, reduced); got[8] != 0 || got[9] != 0 || got[10] != 0 {
		t.Fatalf("fully reduced options encode to %#02x %#02x %#02x, want 0 0 0",
			got[8], got[9], got[10])
	}
}

// FuzzDifferentialConfigs is the native fuzz target: the fuzzer mutates
// (seed, option-byte) inputs, each of which deterministically generates
// a program and runs it through the whole differential matrix. CI runs a
// 30-second smoke (-fuzz=FuzzDifferentialConfigs -fuzztime=30s); longer
// local campaigns are documented in docs/ARCHITECTURE.md. On a
// disagreement the input is shrunk and written to testdata/failures in
// replayable corpus format before failing.
func FuzzDifferentialConfigs(f *testing.F) {
	f.Add(EncodeInput(1, progen.Options{LibCalls: true, Rounds: 1}))
	f.Add(EncodeInput(2, progen.Options{LibCalls: true, LibFaults: true, Rounds: 1}))
	f.Add(EncodeInput(3, progen.Options{LibCalls: true, LibFaults: true, Interior: true, TempHeavy: true, Rounds: 2}))
	f.Add(EncodeInput(4, progen.Options{LibCalls: true, Diamonds: 1, LoopHeavy: true, Rounds: 2}))
	f.Add(EncodeInput(5, progen.Options{LibCalls: true, LibFaults: true, AllocHeavy: true, Rounds: 1}))
	// Loop-and-churn stressor: loop-heavy so invariant checks run on
	// every iteration, temporal faults so those checks guard slots
	// freed mid-loop, alloc-heavy to drive slot reuse.
	f.Add(EncodeInput(6, progen.Options{LibCalls: true, LibFaults: true, LoopHeavy: true, TempHeavy: true, AllocHeavy: true, Rounds: 3}))
	// Static-elision stressors: the StaticSafe workload is where the
	// no-static cell actually differs in instruction count (the analysis
	// proves its walks safe and deletes their checks), so these seeds
	// pin value and report parity across the deletion. The second one
	// mixes in faulting libc traffic and temporal churn so deleted
	// checks sit next to ones that must still fire.
	f.Add(EncodeInput(7, progen.Options{LibCalls: true, StaticSafe: true, Rounds: 2}))
	f.Add(EncodeInput(8, progen.Options{LibCalls: true, LibFaults: true, TempHeavy: true, StaticSafe: true, Rounds: 3}))
	// Layout-table stressor: a 96-shape type explosion, most shapes
	// sharing interned cores, while faulting libc traffic runs
	// alongside, so interned tables must reproduce the oracle's
	// reports, not just its value.
	f.Add(EncodeInput(9, progen.Options{LibCalls: true, LibFaults: true, TypeExplosion: 96, Rounds: 2}))
	f.Fuzz(func(t *testing.T, data []byte) {
		seed, opts, ok := DecodeInput(data)
		if !ok {
			t.Skip("input shorter than 9 bytes")
		}
		prog, err := Build(seed, opts)
		if err != nil {
			// progen output must always compile; a failure here is a
			// generator bug, not an invalid fuzz input.
			t.Fatal(err)
		}
		mm, err := Check(prog)
		if err != nil {
			t.Fatal(err)
		}
		if mm != nil {
			min := Shrink(seed, opts)
			path, werr := WriteReproducer(failuresDir, seed, min)
			if werr != nil {
				path = fmt.Sprintf("(reproducer write failed: %v)", werr)
			}
			t.Fatalf("differential mismatch:\n%s\nshrunk reproducer: %s", mm, path)
		}
	})
}
