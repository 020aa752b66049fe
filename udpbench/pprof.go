package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strings"
)

// This file decodes the subset of runtime/pprof's CPU profile (gzipped
// profile.proto) that layer attribution needs: samples, their
// location stacks, the functions at each location (inlined frames
// expanded), and the string table. The repo has no third-party
// dependencies, so the protobuf wire format is read by hand.

// cpuProfile is a decoded CPU profile: one entry per distinct stack.
type cpuProfile struct {
	samples []profSample
}

// profSample is one stack (function names, leaf first, inlined frames
// expanded) and its CPU time in the profile's last sample unit.
type profSample struct {
	stack []string
	value int64
}

// parseCPUProfile decodes a (possibly gzipped) profile.proto.
func parseCPUProfile(data []byte) (*cpuProfile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("pprof: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("pprof: %w", err)
		}
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples []rawSample
		locFns  = map[uint64][]uint64{} // location id -> function ids, leaf first
		fnName  = map[uint64]int64{}    // function id -> string table index
		strs    []string
	)
	err := eachField(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s rawSample
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					return appendVarints(&s.locs, wire, v, b)
				case 2:
					var u []uint64
					if err := appendVarints(&u, wire, v, b); err != nil {
						return err
					}
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num int, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num int, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p := &cpuProfile{}
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				idx := fnName[fn]
				if idx < 0 || int(idx) >= len(strs) {
					return nil, fmt.Errorf("pprof: function %d names string %d of %d", fn, idx, len(strs))
				}
				stack = append(stack, strs[idx])
			}
		}
		p.samples = append(p.samples, profSample{stack: stack, value: s.values[len(s.values)-1]})
	}
	return p, nil
}

var errTruncated = errors.New("pprof: truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number, wire type and payload (v for varint/fixed, b for
// length-delimited).
func eachField(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			if v, n = uvarint(b); n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			for i := 7; i >= 0; i-- {
				v = v<<8 | uint64(b[i])
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			payload, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			v = uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24
			b = b[4:]
		default:
			return fmt.Errorf("pprof: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// attribution is a profile folded onto the repo's layers.
type attribution struct {
	total int64
	// layer is self time per layer. A sample is charged to the
	// innermost frame that belongs to the repo, so runtime helpers
	// (allocation, map access, GC assists) count against the layer that
	// called them; stacks with no repo frame count as "runtime" when the
	// leaf is in the Go runtime and "other" otherwise (net/http
	// internals, syscalls).
	layer map[string]int64
	// flat is leaf-frame time per function, cum time per function
	// anywhere on the stack (counted once per sample).
	flat, cum map[string]int64
}

// repoPrefix is the import-path prefix of the simulator's packages.
const repoPrefix = "udpsim/internal/"

// pkgPath returns the import path of a pprof function name, e.g.
// "udpsim/internal/cache" for "udpsim/internal/cache.(*MSHRFile).Lookup".
func pkgPath(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// layerOf maps a function to its repo layer: the first path element
// under udpsim/internal ("serve" for the daemon, its queue and store).
// The load generator — this harness (package main) and the daemon
// client it drives — is its own layer, "harness", so it never
// inflates serve's share. ok is false outside the repo.
func layerOf(fn string) (layer string, ok bool) {
	pkg := pkgPath(fn)
	if pkg == "main" || pkg == repoPrefix+"serve/client" {
		return "harness", true
	}
	rest, ok := strings.CutPrefix(pkg, repoPrefix)
	if !ok {
		return "", false
	}
	layer, _, _ = strings.Cut(rest, "/")
	return layer, true
}

// attribute folds a profile onto layers and functions.
func attribute(p *cpuProfile) attribution {
	a := attribution{layer: map[string]int64{}, flat: map[string]int64{}, cum: map[string]int64{}}
	for _, s := range p.samples {
		a.total += s.value
		if len(s.stack) == 0 {
			a.layer["other"] += s.value
			continue
		}
		a.flat[s.stack[0]] += s.value
		seen := map[string]bool{}
		for _, fn := range s.stack {
			if !seen[fn] {
				seen[fn] = true
				a.cum[fn] += s.value
			}
		}
		layer := ""
		for _, fn := range s.stack {
			if l, ok := layerOf(fn); ok {
				layer = l
				break
			}
		}
		if layer == "" {
			layer = "other"
			if strings.HasPrefix(pkgPath(s.stack[0]), "runtime") {
				layer = "runtime"
			}
		}
		a.layer[layer] += s.value
	}
	return a
}

// pct returns v as a percentage of the profile's total.
func (a attribution) pct(v int64) float64 {
	if a.total == 0 {
		return 0
	}
	return 100 * float64(v) / float64(a.total)
}

// profiled runs fn under the CPU profiler, leaves the profile at
// profilePath for `go tool pprof`, and attributes it to layers.
func profiled(workload string, fn func()) (attribution, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return attribution{}, err
	}
	fn()
	pprof.StopCPUProfile()
	if err := os.WriteFile(profilePath(workload), buf.Bytes(), 0o644); err != nil {
		return attribution{}, err
	}
	p, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		return attribution{}, err
	}
	return attribute(p), nil
}
