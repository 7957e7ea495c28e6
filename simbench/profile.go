package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// modules are the simulator packages the CPU profile is attributed to,
// in report order. Samples with none of them on the stack are runtime.
var modules = []string{"des", "scheduler", "cluster", "resources", "sim", "metrics", "trace", "federation", "workload"}

const modulePrefix = "notebookos/internal/"

// cpuProfile is a CPU profile being taken, then its attribution.
type cpuProfile struct {
	raw bytes.Buffer
	// samples counts profile samples by module ("runtime" for the rest).
	samples map[string]int64
	total   int64
}

func startProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.raw); err != nil {
		return nil, fmt.Errorf("start CPU profile: %w", err)
	}
	return p, nil
}

// stop ends the profile and attributes its samples.
func (p *cpuProfile) stop() error {
	pprof.StopCPUProfile()
	samples, err := attribute(p.raw.Bytes())
	if err != nil {
		return fmt.Errorf("read CPU profile: %w", err)
	}
	p.samples = samples
	for _, n := range samples {
		p.total += n
	}
	return nil
}

// frac is module's share of the profile's samples.
func (p *cpuProfile) frac(module string) float64 {
	if p == nil || p.total == 0 {
		return 0
	}
	return float64(p.samples[module]) / float64(p.total)
}

// moduleOf maps a function name to its simulator module, or "".
func moduleOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, modulePrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	for _, m := range modules {
		if m == rest {
			return m
		}
	}
	return ""
}

// attribute decodes a gzipped pprof profile and counts its samples by the
// innermost simulator-module frame on each stack, so that time in a
// callee outside the simulator — a mutex, the allocator — lands on the
// module that called it.
func attribute(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	var (
		strs     []string
		funcName = map[uint64]int64{}    // function id -> string index
		locFuncs = map[uint64][]uint64{} // location id -> function ids, innermost first
		samples  [][]uint64              // location ids, leaf first
		counts   []int64
	)
	err = fields(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var locs []uint64
			var count int64
			err := fields(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					locs = appendUints(locs, wire, v, b)
				case 2:
					if vals := appendUints(nil, wire, v, b); count == 0 && len(vals) > 0 {
						count = int64(vals[0])
					}
				}
				return nil
			})
			samples = append(samples, locs)
			counts = append(counts, count)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return fields(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := fields(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := map[string]int64{}
	for i, locs := range samples {
		mod := "runtime"
	stack:
		for _, loc := range locs {
			for _, fn := range locFuncs[loc] {
				idx := funcName[fn]
				if idx < 0 || int(idx) >= len(strs) {
					continue
				}
				if m := moduleOf(strs[idx]); m != "" {
					mod = m
					break stack
				}
			}
		}
		out[mod] += counts[i]
	}
	return out, nil
}

// appendUints appends a repeated integer field's values, packed (wire
// type 2) or not.
func appendUints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire != 2 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

var errTruncated = errors.New("truncated protobuf")

// fields walks one protobuf message, calling f with each field's number,
// wire type, and value (varint) or bytes (length-delimited).
func fields(b []byte, f func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			body = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := f(num, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}
