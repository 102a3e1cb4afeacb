package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"strings"
)

// The traced run profiles the CPU while it works and attributes every
// sample to the innermost frame that belongs to this module, so a layer's
// share includes the standard-library work it calls (JSON decoding under
// the store, allocation under the GP). Samples with no module frame — the
// garbage collector's background workers, the HTTP server's connection
// handling — count as "other". The decoder below reads just the parts of
// the pprof protobuf format (profile.proto) this needs.

const modulePrefix = "locat/"

// cpuShares decodes a gzipped pprof CPU profile and returns each layer's
// share of the sampled CPU time.
func cpuShares(profile []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	var (
		strs      []string
		funcName  = map[uint64]int64{}    // function id -> string index
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		samples   [][]uint64
		sampleVal []int64
	)
	err = fields(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var locs []uint64
			var vals []int64
			err := fields(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					return varints(wire, v, b, func(x uint64) { locs = append(locs, x) })
				case 2:
					return varints(wire, v, b, func(x uint64) { vals = append(vals, int64(x)) })
				}
				return nil
			})
			if err != nil {
				return err
			}
			samples = append(samples, locs)
			if len(vals) > 0 {
				sampleVal = append(sampleVal, vals[len(vals)-1])
			} else {
				sampleVal = append(sampleVal, 0)
			}
		case 4: // Location
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return fields(b, func(num int, wire int, v uint64, b []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // Function
			var id uint64
			var name int64
			err := fields(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	totals := map[string]float64{}
	all := 0.0
	for i, locs := range samples {
		v := float64(sampleVal[i])
		all += v
		totals[sampleLayer(locs, locFuncs, funcName, strs)] += v
	}
	if all == 0 {
		return nil, errors.New("empty CPU profile")
	}
	for k := range totals {
		totals[k] /= all
	}
	return totals, nil
}

func sampleLayer(locs []uint64, locFuncs map[uint64][]uint64, funcName map[uint64]int64, strs []string) string {
	for _, loc := range locs {
		for _, fn := range locFuncs[loc] {
			idx := funcName[fn]
			if idx < 0 || int(idx) >= len(strs) {
				continue
			}
			if strings.HasPrefix(strs[idx], "main.") {
				return "bench"
			}
			if pkg, ok := modulePackage(strs[idx]); ok {
				if l, ok := layerOf[pkg]; ok {
					return l
				}
				return "other"
			}
		}
	}
	return "other"
}

// modulePackage returns the package path below the module root of a
// function symbol such as "locat/internal/gp.(*GP).Predict".
func modulePackage(sym string) (string, bool) {
	if strings.HasPrefix(sym, "locat.") {
		return "locat", true
	}
	if !strings.HasPrefix(sym, modulePrefix) {
		return "", false
	}
	rest := strings.TrimPrefix(sym, modulePrefix)
	slash := strings.LastIndex(rest, "/")
	dot := strings.Index(rest[slash+1:], ".")
	if dot < 0 {
		return "", false
	}
	pkg := rest[:slash+1+dot]
	return strings.TrimPrefix(pkg, "internal/"), true
}

// fields walks the top-level fields of one protobuf message. For varint
// fields v holds the value; for length-delimited fields b holds the bytes.
func fields(buf []byte, fn func(num int, wire int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errors.New("bad protobuf key")
		}
		buf = buf[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(buf)
			if n <= 0 {
				return errors.New("bad protobuf varint")
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errors.New("short protobuf fixed64")
			}
			v = binary.LittleEndian.Uint64(buf)
			buf = buf[8:]
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errors.New("bad protobuf length")
			}
			b = buf[n : n+int(l)]
			buf = buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errors.New("short protobuf fixed32")
			}
			v = uint64(binary.LittleEndian.Uint32(buf))
			buf = buf[4:]
		default:
			return errors.New("unsupported protobuf wire type")
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// varints decodes a repeated integer field, packed or not.
func varints(wire int, v uint64, b []byte, fn func(uint64)) error {
	if wire == 0 {
		fn(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		fn(x)
		b = b[n:]
	}
	return nil
}
