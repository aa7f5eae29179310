package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
)

// The CPU profile runtime/pprof writes is a gzipped protocol buffer
// (github.com/google/pprof/proto/profile.proto). The benchmark needs
// only each sample's count and its stack of function names, so it
// decodes just those fields of the wire format here.

// profile is the part of a CPU profile the benchmark reads.
type profile struct {
	samples []profileSample
}

// profileSample is one stack, innermost frame first, and the number
// of times it was sampled.
type profileSample struct {
	stack []string
	count int64
}

// Field numbers of profile.proto.
const (
	profileSampleField   = 2
	profileLocationField = 4
	profileFunctionField = 5
	profileStringField   = 6

	sampleLocationField = 1
	sampleValueField    = 2

	locationIDField   = 1
	locationLineField = 4
	lineFunctionField = 1

	functionIDField   = 1
	functionNameField = 2
)

func parseProfile(raw []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location → function ids, innermost first
		funcNames = map[uint64]uint64{}   // function → string index
		strs      []string
	)
	err = eachField(data, func(field int, v uint64, b []byte) error {
		switch field {
		case profileSampleField:
			var s rawSample
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case sampleLocationField:
					return appendPacked(&s.locs, v, b)
				case sampleValueField:
					return appendPacked(&s.values, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case profileLocationField:
			var id uint64
			var fns []uint64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case locationIDField:
					id = v
				case locationLineField:
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == lineFunctionField {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case profileFunctionField:
			var id, name uint64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case functionIDField:
					id = v
				case functionNameField:
					name = v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case profileStringField:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p := &profile{}
	for _, s := range samples {
		if len(s.values) == 0 {
			return nil, fmt.Errorf("sample without values")
		}
		ps := profileSample{count: int64(s.values[0])}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcNames[fn]; idx < uint64(len(strs)) {
					ps.stack = append(ps.stack, strs[idx])
				}
			}
		}
		p.samples = append(p.samples, ps)
	}
	return p, nil
}

// eachField calls f for every field of an encoded message: v holds a
// varint or fixed-width value, b a length-delimited one.
func eachField(data []byte, f func(field int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return fmt.Errorf("bad field key")
		}
		data = data[n:]
		field := int(key >> 3)
		var v uint64
		var b []byte
		switch key & 7 {
		case 0: // varint
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return fmt.Errorf("bad varint in field %d", field)
			}
			data = data[n:]
		case 1: // 64-bit
			if len(data) < 8 {
				return fmt.Errorf("short fixed64 in field %d", field)
			}
			v, data = binary.LittleEndian.Uint64(data), data[8:]
		case 2: // length-delimited
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return fmt.Errorf("bad length in field %d", field)
			}
			b, data = data[n:n+int(l)], data[n+int(l):]
		case 5: // 32-bit
			if len(data) < 4 {
				return fmt.Errorf("short fixed32 in field %d", field)
			}
			v, data = uint64(binary.LittleEndian.Uint32(data)), data[4:]
		default:
			return fmt.Errorf("unsupported wire type %d in field %d", key&7, field)
		}
		if err := f(field, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated integer field, which arrives either
// as one varint or as a packed run of them.
func appendPacked(dst *[]uint64, v uint64, b []byte) error {
	if b == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
