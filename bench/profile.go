package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
)

// cpuLayers lists every category a CPU sample is attributed to, as the
// suffix of its cpu.* metric. The shares of one profile sum to 1.
var cpuLayers = []string{
	"mir.interp", "mir.analysis", "cc", "instrument", "core", "ctypes",
	"layout", "lowfat", "mem", "intrinsics", "sanitizers",
	"go.alloc", "go.gc", "go.other", "bench", "other",
}

// repoLayers are the repository packages that get a category of their
// own; every other repository package counts as "other".
var repoLayers = map[string]bool{
	"cc": true, "instrument": true, "core": true, "ctypes": true, "layout": true,
	"lowfat": true, "mem": true, "intrinsics": true, "sanitizers": true,
}

// gcRoots are the runtime functions whose presence anywhere in a stack
// makes the sample garbage-collection work.
var gcRoots = map[string]bool{
	"runtime.gcBgMarkWorker": true, "runtime.gcAssistAlloc": true,
	"runtime.bgsweep": true, "runtime.bgscavenge": true,
}

// frame is one function in a sampled stack.
type frame struct{ fn, file string }

// attribute returns the category of one sampled stack, leaf first.
func attribute(stack []frame) string {
	alloc := false
	for _, f := range stack {
		if gcRoots[f.fn] {
			return "go.gc"
		}
		alloc = alloc || f.fn == "runtime.mallocgc"
	}
	if alloc {
		return "go.alloc"
	}
	if len(stack) == 0 {
		return "other"
	}
	leaf := stack[0]
	pkg := funcPackage(leaf.fn)
	switch {
	case pkg == "repro/internal/mir":
		if base := path.Base(leaf.file); base == "interp.go" || base == "env.go" {
			return "mir.interp"
		}
		return "mir.analysis"
	case strings.HasPrefix(pkg, "repro/internal/"):
		if l := strings.TrimPrefix(pkg, "repro/internal/"); repoLayers[l] {
			return l
		}
		return "other"
	case pkg == "main" || pkg == "repro/bench":
		return "bench"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "go.other"
	}
	return "other"
}

// funcPackage returns the import path of a symbol name such as
// "repro/internal/mir.(*Interp).exec" or "runtime.mallocgc".
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// addProfile decodes one gzipped pprof CPU profile and adds the CPU
// time of its samples to weights, keyed by category.
func addProfile(data []byte, weights map[string]float64) error {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	for _, s := range p.samples {
		var stack []frame
		for _, loc := range s.locs {
			for _, fid := range p.locFuncs[loc] {
				f := p.funcs[fid]
				stack = append(stack, frame{fn: p.str(f.name), file: p.str(f.file)})
			}
		}
		weights[attribute(stack)] += float64(s.value)
	}
	return nil
}

// shares normalises category weights to shares of their total, with
// every category of cpuLayers present.
func shares(weights map[string]float64) map[string]float64 {
	var total float64
	for _, w := range weights {
		total += w
	}
	out := map[string]float64{}
	for _, l := range cpuLayers {
		if total > 0 {
			out["cpu."+l] = weights[l] / total
		} else {
			out["cpu."+l] = 0
		}
	}
	return out
}

// The subset of the pprof protobuf schema (profile.proto) the attribution
// needs: samples with their location ids and values, locations with the
// functions of their lines (innermost first), functions with name and
// file, and the string table.
type profile struct {
	samples  []profSample
	locFuncs map[uint64][]uint64
	funcs    map[uint64]profFunc
	strings  []string
}

type profSample struct {
	locs  []uint64
	value int64 // the last sample value: CPU nanoseconds in a CPU profile
}

type profFunc struct{ name, file int64 }

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

func parseProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcs: map[uint64]profFunc{}}
	err := eachField(b, func(num int, v uint64, sub []byte) error {
		switch num {
		case 2:
			var s profSample
			var vals []uint64
			err := eachField(sub, func(num int, v uint64, sub []byte) error {
				switch num {
				case 1:
					return appendVarints(&s.locs, v, sub)
				case 2:
					return appendVarints(&vals, v, sub)
				}
				return nil
			})
			if len(vals) > 0 {
				s.value = int64(vals[len(vals)-1])
			}
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(sub, func(num int, v uint64, sub []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return eachField(sub, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5:
			var id uint64
			var f profFunc
			err := eachField(sub, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					f.name = int64(v)
				case 4:
					f.file = int64(v)
				}
				return nil
			})
			p.funcs[id] = f
			return err
		case 6:
			p.strings = append(p.strings, string(sub))
		}
		return nil
	})
	return p, err
}

var errTruncated = errors.New("truncated protobuf")

// eachField calls fn for every field of one protobuf message: varint
// fields get their value, length-delimited fields their bytes. Fixed-width
// fields are skipped; the profile schema uses none.
func eachField(b []byte, fn func(num int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n == 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var sub []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n == 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2:
			l, n := uvarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			sub, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := fn(num, v, sub); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed (sub) or not (v).
func appendVarints(dst *[]uint64, v uint64, sub []byte) error {
	if sub == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(sub) > 0 {
		x, n := uvarint(sub)
		if n == 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		sub = sub[n:]
	}
	return nil
}

// uvarint decodes a protobuf varint; n is 0 when b is truncated or the
// varint overflows.
func uvarint(b []byte) (v uint64, n int) {
	v, n = binary.Uvarint(b)
	return v, max(n, 0)
}
