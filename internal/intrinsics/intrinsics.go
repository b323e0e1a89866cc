// Package intrinsics models the hot libc surface as interpreter
// intrinsics that consult low-fat bounds and layout effective types
// before operating — the library-boundary hardening of "Introspection
// for C" grafted onto the EffectiveSan runtime.
//
// An intrinsic is an OpCall whose callee is not defined in the program:
// the MIR interpreter resolves the name here and runs the handler
// instead of a function body. Every handler has two halves with a hard
// contract between them:
//
//   - the OPERATION half always executes identically whether or not a
//     runtime is attached — checks observe and report, they never change
//     what the program computes (the paper's logging semantics, and the
//     property the differential-fuzz oracle in internal/difftest leans
//     on);
//   - the CHECK half runs only when the instrument pass assigned the
//     call a site ID and the interpreter carries an EffectiveSan
//     runtime. Violations are reported with the same site-ID +
//     provenance scheme as OpTypeCheck, so the §5.3 inline caches and
//     the elision statistics stay meaningful across the new call sites.
//
// Per-function policy:
//
//	memcpy   bounds both ranges; overlapping ranges are an OverlapError
//	memmove  bounds both ranges; overlap explicitly allowed
//	memset   bounds the destination range
//	strcpy   NUL-scan the source (clamped to its low-fat slot), bounds
//	         the len+1-byte read and write; a missing terminator shows
//	         up as the scan crossing the source bounds
//	strncpy  C semantics (stop at NUL, zero-pad to n); bounds the actual
//	         read and the full n-byte write
//	strlen   NUL-scan, bounds the len+1-byte read
//	free     routed through the environment's free, where the runtime's
//	         type_free reports interior-pointer and double frees
//	qsort    bounds the whole element range; the comparator re-enters
//	         the interpreter, so comparator out-of-bounds accesses are
//	         caught by the comparator's own instrumentation
//
// NUL scans never leave the pointer's low-fat slot (pure address
// arithmetic, identical in every configuration): bytes past the object
// but inside the slot read as zero on a fresh slot, so scan results are
// deterministic — the check half reports the overread, the operation
// half still terminates.
package intrinsics

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/ctypes"
	"repro/internal/lowfat"
	"repro/internal/mem"
)

// legacyScanCap bounds NUL scans through legacy (non-low-fat) pointers,
// whose slot extent is unknown (1 MiB, matching the quarantine-flush
// scale used elsewhere).
const legacyScanCap = 1 << 20

// Ctx is one intrinsic invocation: the call's argument values, the
// caller's bounds registers for them (sub-object provenance), and the
// services the interpreter wires in.
type Ctx struct {
	// RT is the EffectiveSan runtime; nil runs the call unchecked (the
	// uninstrumented baseline and TypeOnly).
	RT *core.Runtime
	// Mem is the simulated address space the operation half acts on.
	Mem *mem.Memory
	// Args holds the call's argument register values.
	Args []uint64
	// Bounds holds the caller's shadow bounds register for each argument:
	// when instrumentation narrowed the pointer (e.g. &p->field), the
	// intrinsic checks against the sub-object, which is what catches a
	// strcpy overflowing into a sibling field.
	Bounds []core.Bounds
	// Stats counts the call's type checks, with plain adds; set whenever
	// RT is. The interpreter passes its Run's snapshot, which it merges
	// into RT's counters when the Run ends (core.Runtime.TypeCheckInto).
	Stats *core.StatsSnapshot
	// SiteID is the base site ID the instrument pass assigned to this
	// call (0 for unchecked calls). The call reserves one ID per pointer
	// argument — SiteID+0, SiteID+1, ... — so each argument's checks get
	// their own §5.3 inline-cache slot.
	SiteID int64
	// Site is the call's diagnostic location.
	Site string
	// Access notifies the interpreter's hooks of a byte-range access, so
	// hook-based baseline sanitizers see intrinsic traffic exactly as
	// they saw the OpMemcpy/OpMemset builtins. May be nil.
	Access func(p, n uint64, write bool)
	// Free routes through the environment's free (type_free under the
	// EffectiveSan environments). Nil only in hand-built contexts.
	Free func(p uint64)
	// Cmp re-enters the interpreter on the comparator named by the
	// call's Str field (qsort only; nil otherwise).
	Cmp func(a, b uint64) int64
	// Spend charges n units against the interpreter's step budget, so
	// intrinsic loops respect the runaway backstop. May be nil.
	Spend func(n uint64)

	// buf is scratch space handlers reuse across invocations: the
	// interpreter keeps one Ctx per intrinsic nesting depth of a run, so
	// a comparator re-entering the interpreter never shares it with the
	// qsort that called it.
	buf []byte
}

// scratch returns n bytes of reusable scratch space.
func (c *Ctx) scratch(n uint64) []byte {
	if uint64(cap(c.buf)) < n {
		c.buf = make([]byte, n)
	}
	return c.buf[:n]
}

func (c *Ctx) spend(n uint64) {
	if c.Spend != nil {
		c.Spend(n)
	}
}

func (c *Ctx) access(p, n uint64, write bool) {
	if c.Access != nil {
		c.Access(p, n, write)
	}
}

// boundsFor returns the bounds to check the ptrIdx'th pointer argument
// (value p) against: the caller's narrowed provenance when one was
// established, otherwise a char[]-view type check through the normal
// cache cascade (allocation bounds, plus UAF/legacy/null handling for
// free — Fig. 6 line 11 semantics).
func (c *Ctx) boundsFor(ptrIdx int, argIdx int, p uint64) core.Bounds {
	if b := c.Bounds[argIdx]; b != core.Wide {
		return b
	}
	return c.RT.TypeCheckInto(c.Stats, p, ctypes.Char, c.siteFor(ptrIdx), c.Site)
}

// siteFor returns the site ID reserved for the ptrIdx'th pointer
// argument of this call (0 when the call is unsited).
func (c *Ctx) siteFor(ptrIdx int) int64 {
	if c.SiteID == 0 {
		return 0
	}
	return c.SiteID + int64(ptrIdx)
}

// checkRange bounds-checks an n-byte access at p for the ptrIdx'th
// pointer argument (argIdx in Args), reporting under label — a
// core.Label constant, which passes as a fmt.Stringer without
// allocating and is rendered only if the check fails.
func (c *Ctx) checkRange(ptrIdx, argIdx int, p, n uint64, label fmt.Stringer) {
	if c.RT == nil {
		return
	}
	b := c.boundsFor(ptrIdx, argIdx, p)
	c.RT.BoundsCheck(p, n, b, label, c.Site)
}

// Desc describes one intrinsic: its calling shape for the validator and
// instrumenter, and its handler.
type Desc struct {
	Name string
	// NumArgs is the required register-argument count (the qsort
	// comparator travels in Instr.Str, not in Args).
	NumArgs int
	// PtrArgs marks which register arguments are pointers — the
	// instrument pass marks them used (so field-narrowed provenance
	// reaches the call) and reserves one site ID each.
	PtrArgs []bool
	// Ret is the intrinsic's return type (nil = void at the MIR level;
	// the C-level "returns dst" of the copy family is resolved by the
	// frontend reusing the argument value).
	Ret *ctypes.Type
	// NeedsCmp requires the call to carry a comparator function name in
	// Instr.Str (qsort).
	NeedsCmp bool
	// Abs is the intrinsic's compile-time transfer summary, consumed by
	// the static safety analysis (mir.AnalyzeSafety).
	Abs Summary
	// Run executes the intrinsic and returns its value (0 for void).
	Run func(c *Ctx) uint64
}

// Summary abstracts an intrinsic's behaviour for static analysis: which
// pointer arguments it deallocates, whether its integer result is
// provably non-negative, and — for NeedsCmp intrinsics — which
// argument's elements are handed to the re-entered comparator.
type Summary struct {
	// FreesArgs lists Args indices whose referent may be deallocated by
	// the call (free's argument; empty for the pure-memory family).
	FreesArgs []int
	// RetNonNeg marks an integer result that is always >= 0 (strlen).
	RetNonNeg bool
	// CmpElemArg is the Args index whose elements reach the comparator
	// named in Instr.Str. Only meaningful when NeedsCmp is set.
	CmpElemArg int
}

// NumSites returns how many check-site IDs a checked call to this
// intrinsic reserves (one per pointer argument).
func (d *Desc) NumSites() int64 {
	n := int64(0)
	for _, p := range d.PtrArgs {
		if p {
			n++
		}
	}
	return n
}

var registry = map[string]*Desc{
	"memcpy": {
		Name: "memcpy", NumArgs: 3, PtrArgs: []bool{true, true, false},
		Run: func(c *Ctx) uint64 {
			dst, src, n := c.Args[0], c.Args[1], c.Args[2]
			if c.RT != nil {
				c.checkRange(1, 1, src, n, core.Label("memcpy src"))
				c.checkRange(0, 0, dst, n, core.Label("memcpy dst"))
				if n > 0 && rangesOverlap(dst, src, n) {
					reportOverlap(c, "memcpy", dst, src)
				}
			}
			c.spend(n)
			c.access(src, n, false)
			c.access(dst, n, true)
			c.Mem.Copy(dst, src, n)
			return 0
		},
	},
	"memmove": {
		Name: "memmove", NumArgs: 3, PtrArgs: []bool{true, true, false},
		Run: func(c *Ctx) uint64 {
			dst, src, n := c.Args[0], c.Args[1], c.Args[2]
			if c.RT != nil {
				c.checkRange(1, 1, src, n, core.Label("memmove src"))
				c.checkRange(0, 0, dst, n, core.Label("memmove dst"))
			}
			c.spend(n)
			c.access(src, n, false)
			c.access(dst, n, true)
			c.Mem.Copy(dst, src, n) // overlap-safe in both walk directions
			return 0
		},
	},
	"memset": {
		Name: "memset", NumArgs: 3, PtrArgs: []bool{true, false, false},
		Run: func(c *Ctx) uint64 {
			dst, v, n := c.Args[0], c.Args[1], c.Args[2]
			if c.RT != nil {
				c.checkRange(0, 0, dst, n, core.Label("memset"))
			}
			c.spend(n)
			c.access(dst, n, true)
			c.Mem.Set(dst, byte(v), n)
			return 0
		},
	},
	"strcpy": {
		Name: "strcpy", NumArgs: 2, PtrArgs: []bool{true, true},
		Run: func(c *Ctx) uint64 {
			dst, src := c.Args[0], c.Args[1]
			n, terminated := scanNUL(c, src)
			// Copy the scanned bytes plus the terminator; an unterminated
			// source (scan hit the slot clamp) still terminates dst so the
			// operation half stays deterministic — the check half reports
			// the overread.
			if c.RT != nil {
				c.checkRange(1, 1, src, n+1, core.Label("strcpy src"))
				c.checkRange(0, 0, dst, n+1, core.Label("strcpy dst"))
			}
			c.spend(n + 1)
			c.access(src, n, false)
			c.access(dst, n+1, true)
			c.Mem.Copy(dst, src, n)
			c.Mem.Store(dst+n, 1, 0)
			_ = terminated
			return 0
		},
	},
	"strncpy": {
		Name: "strncpy", NumArgs: 3, PtrArgs: []bool{true, true, false},
		Run: func(c *Ctx) uint64 {
			dst, src, n := c.Args[0], c.Args[1], c.Args[2]
			l, terminated := scanNUL(c, src)
			read := l
			if terminated && l < n {
				read = l + 1 // the terminator is read too
			}
			if read > n {
				read = n
			}
			if c.RT != nil {
				if read > 0 {
					c.checkRange(1, 1, src, read, core.Label("strncpy src"))
				}
				c.checkRange(0, 0, dst, n, core.Label("strncpy dst"))
			}
			c.spend(n + 1)
			copyN := min(l, n)
			c.access(src, copyN, false)
			c.access(dst, n, true)
			c.Mem.Copy(dst, src, copyN)
			if copyN < n {
				c.Mem.Set(dst+copyN, 0, n-copyN) // C strncpy zero-pads
			}
			return 0
		},
	},
	"strlen": {
		Name: "strlen", NumArgs: 1, PtrArgs: []bool{true}, Ret: ctypes.Long,
		Abs: Summary{RetNonNeg: true},
		Run: func(c *Ctx) uint64 {
			p := c.Args[0]
			n, _ := scanNUL(c, p)
			if c.RT != nil {
				c.checkRange(0, 0, p, n+1, core.Label("strlen"))
			}
			c.spend(n + 1)
			c.access(p, n+1, false)
			return n
		},
	},
	"free": {
		Name: "free", NumArgs: 1, PtrArgs: []bool{true},
		Abs: Summary{FreesArgs: []int{0}},
		Run: func(c *Ctx) uint64 {
			// Interior-pointer and double frees are detected inside the
			// environment's type_free, which reports and refuses — the
			// object stays live, deterministically, in every configuration.
			if c.Free != nil {
				c.Free(c.Args[0])
			}
			return 0
		},
	},
	"qsort": {
		Name: "qsort", NumArgs: 3, PtrArgs: []bool{true, false, false},
		NeedsCmp: true, Abs: Summary{CmpElemArg: 0},
		Run: func(c *Ctx) uint64 {
			base, n, size := c.Args[0], c.Args[1], c.Args[2]
			if c.RT != nil && n > 0 {
				c.checkRange(0, 0, base, n*size, core.Label("qsort"))
			}
			if n < 2 || size == 0 {
				return 0
			}
			c.spend(n * n) // selection sort's comparison budget
			c.access(base, n*size, false)
			c.access(base, n*size, true)
			// Selection sort: only real element addresses ever reach the
			// comparator (no scratch copies), so the comparator's own
			// entry type check sees the true allocation — comparator OOB
			// is caught by its instrumentation on re-entry. Swaps go
			// through host-side buffers, not simulated scratch memory.
			buf := c.scratch(2 * size)
			bi, bj := buf[:size], buf[size:]
			for i := uint64(0); i < n-1; i++ {
				best := i
				for j := i + 1; j < n; j++ {
					if c.Cmp(base+j*size, base+best*size) < 0 {
						best = j
					}
				}
				if best != i {
					c.Mem.ReadBytes(base+i*size, bi)
					c.Mem.ReadBytes(base+best*size, bj)
					c.Mem.WriteBytes(base+i*size, bj)
					c.Mem.WriteBytes(base+best*size, bi)
				}
			}
			return 0
		},
	},
}

// Lookup returns the descriptor of the named intrinsic, or nil. Program
// functions shadow intrinsics: callers resolve the program first.
func Lookup(name string) *Desc { return registry[name] }

// scanNUL returns the number of bytes before the first NUL at p and
// whether one was found. The scan is clamped to p's low-fat slot (pure
// address arithmetic — identical in every configuration, with or
// without a runtime), so it can never read another allocation's memory:
// fresh slots read as zero past the object, making the result
// deterministic; the caller's check half reports any crossing of the
// object bounds.
func scanNUL(c *Ctx, p uint64) (n uint64, found bool) {
	clamp := uint64(legacyScanCap)
	if base := lowfat.Base(p); base != 0 {
		clamp = base + lowfat.Size(p) - p
	}
	buf := make([]byte, 64)
	for n < clamp {
		chunk := min(uint64(len(buf)), clamp-n)
		c.Mem.ReadBytes(p+n, buf[:chunk])
		for i := uint64(0); i < chunk; i++ {
			if buf[i] == 0 {
				return n + i, true
			}
		}
		n += chunk
	}
	return clamp, false
}

// rangesOverlap reports whether [dst,dst+n) and [src,src+n) intersect.
func rangesOverlap(dst, src, n uint64) bool {
	d := dst - src
	if dst < src {
		d = src - dst
	}
	return d < n
}

// reportOverlap buckets an OverlapError by the (address-independent)
// overlap distance and the destination allocation's dynamic type —
// overlapping ranges necessarily share an allocation, so the distance is
// stable across runs and configurations.
func reportOverlap(c *Ctx, fn string, dst, src uint64) {
	dist := int64(src) - int64(dst)
	dyn := "legacy"
	if t, _, _, ok := c.RT.DynamicType(dst); ok {
		dyn = t.String()
	}
	c.RT.Reporter.Report(core.OverlapError, fn, dyn, dist, c.Site)
}
