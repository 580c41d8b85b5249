package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
)

// profileFlat decodes a gzipped pprof CPU profile, as runtime/pprof writes
// it, and returns each function's flat CPU time in nanoseconds over the
// samples that carry the label key=value: a sample is charged to the
// innermost function of its leaf location, as the flat column of
// `go tool pprof -top` does.
func profileFlat(raw []byte, key, value string) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		leaf   uint64
		values []uint64
		labels [][2]uint64 // key and value indices into strs
	}
	var (
		strs     []string
		types    []uint64 // sample_type name indices into strs
		samples  []sample
		leafFunc = map[uint64]uint64{} // location id → innermost function id
		funcName = map[uint64]uint64{} // function id → name index into strs
	)
	// Field numbers follow profile.proto (github.com/google/pprof).
	err = fields(data, func(num, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return fields(b, func(num, _ int, v uint64, _ []byte) error {
				if num == 1 {
					types = append(types, v)
				}
				return nil
			})
		case 2: // sample
			var s sample
			var locs []uint64
			err := fields(b, func(num, wire int, v uint64, b []byte) error {
				if num == 3 { // label
					var kv [2]uint64
					s.labels = append(s.labels, kv)
					return fields(b, func(num, _ int, v uint64, _ []byte) error {
						if num == 1 || num == 2 {
							s.labels[len(s.labels)-1][num-1] = v
						}
						return nil
					})
				}
				if num != 1 && num != 2 {
					return nil
				}
				xs, err := varints(wire, v, b)
				if num == 1 {
					locs = append(locs, xs...)
				} else {
					s.values = append(s.values, xs...)
				}
				return err
			})
			if len(locs) > 0 {
				s.leaf = locs[0]
			}
			samples = append(samples, s)
			return err
		case 4: // location
			var id, fn uint64
			seenLine := false
			err := fields(b, func(num, _ int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line; the first is the innermost inlined frame
					if seenLine {
						return nil
					}
					seenLine = true
					return fields(b, func(num, _ int, v uint64, _ []byte) error {
						if num == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			leafFunc[id] = fn
			return err
		case 5: // function
			var id, name uint64
			err := fields(b, func(num, _ int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	cpu := len(types) - 1
	for i, t := range types {
		if str(t) == "cpu" {
			cpu = i
		}
	}
	labelled := func(kv [2]uint64) bool { return str(kv[0]) == key && str(kv[1]) == value }
	flat := map[string]int64{}
	for _, s := range samples {
		if cpu < 0 || cpu >= len(s.values) || !slices.ContainsFunc(s.labels, labelled) {
			continue
		}
		name := str(funcName[leafFunc[s.leaf]])
		if name == "" {
			name = "unknown"
		}
		flat[name] += int64(s.values[cpu])
	}
	return flat, nil
}

var errTruncated = errors.New("truncated protobuf")

// fields walks one protobuf message, calling fn with each field's number and
// wire type and either its varint value or its length-delimited bytes.
func fields(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var sub []byte
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
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
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
		if err := fn(num, wire, v, sub); err != nil {
			return err
		}
	}
	return nil
}

// varints decodes a repeated integer field, which runtime/pprof writes
// either packed (wire type 2) or as a single varint.
func varints(wire int, v uint64, b []byte) ([]uint64, error) {
	if wire == 0 {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		out = append(out, x)
		b = b[n:]
	}
	return out, nil
}
