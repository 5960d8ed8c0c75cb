package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"time"
)

// cpuProfile is the part of a runtime/pprof CPU profile the attribution
// needs: each sample's stack as function names, its CPU time and labels.
type cpuProfile struct {
	samples []profSample
}

type profSample struct {
	stack  []string // leaf first; inlined calls expanded, innermost first
	cpu    time.Duration
	labels map[string]string
}

// parseCPUProfile decodes a (gzipped) profile.proto message. It reads only
// the fields it needs: sample (2), location (4), function (5) and
// string_table (6); the rest are skipped.
func parseCPUProfile(data []byte) (*cpuProfile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	type rawLabel struct{ key, str int64 }
	type rawSample struct {
		locs   []uint64
		values []int64
		labels []rawLabel
	}
	var (
		sampleTypes [][2]int64 // (type, unit) string indexes
		samples     []rawSample
		locFuncs    = map[uint64][]uint64{}
		funcNames   = map[uint64]int64{}
		strs        []string
	)
	top := pbReader{b: data}
	for top.more() {
		field, wire := top.key()
		switch {
		case field == 1 && wire == 2: // sample_type
			m := pbReader{b: top.bytes()}
			var vt [2]int64
			for m.more() {
				f, w := m.key()
				switch {
				case f == 1 && w == 0:
					vt[0] = int64(m.varint())
				case f == 2 && w == 0:
					vt[1] = int64(m.varint())
				default:
					m.skip(w)
				}
			}
			top.err = errors.Join(top.err, m.err)
			sampleTypes = append(sampleTypes, vt)
		case field == 2 && wire == 2: // sample
			m := pbReader{b: top.bytes()}
			var s rawSample
			for m.more() {
				f, w := m.key()
				switch {
				case f == 1:
					m.uints(w, func(v uint64) { s.locs = append(s.locs, v) })
				case f == 2:
					m.uints(w, func(v uint64) { s.values = append(s.values, int64(v)) })
				case f == 3 && w == 2:
					l := pbReader{b: m.bytes()}
					var lab rawLabel
					for l.more() {
						lf, lw := l.key()
						switch {
						case lf == 1 && lw == 0:
							lab.key = int64(l.varint())
						case lf == 2 && lw == 0:
							lab.str = int64(l.varint())
						default:
							l.skip(lw)
						}
					}
					m.err = errors.Join(m.err, l.err)
					s.labels = append(s.labels, lab)
				default:
					m.skip(w)
				}
			}
			top.err = errors.Join(top.err, m.err)
			samples = append(samples, s)
		case field == 4 && wire == 2: // location
			m := pbReader{b: top.bytes()}
			var id uint64
			var funcs []uint64
			for m.more() {
				f, w := m.key()
				switch {
				case f == 1 && w == 0:
					id = m.varint()
				case f == 4 && w == 2: // line
					l := pbReader{b: m.bytes()}
					for l.more() {
						lf, lw := l.key()
						if lf == 1 && lw == 0 {
							funcs = append(funcs, l.varint())
						} else {
							l.skip(lw)
						}
					}
					m.err = errors.Join(m.err, l.err)
				default:
					m.skip(w)
				}
			}
			top.err = errors.Join(top.err, m.err)
			locFuncs[id] = funcs
		case field == 5 && wire == 2: // function
			m := pbReader{b: top.bytes()}
			var id uint64
			var name int64
			for m.more() {
				f, w := m.key()
				switch {
				case f == 1 && w == 0:
					id = m.varint()
				case f == 2 && w == 0:
					name = int64(m.varint())
				default:
					m.skip(w)
				}
			}
			top.err = errors.Join(top.err, m.err)
			funcNames[id] = name
		case field == 6 && wire == 2: // string_table
			strs = append(strs, string(top.bytes()))
		default:
			top.skip(wire)
		}
	}
	if top.err != nil {
		return nil, fmt.Errorf("profile: %w", top.err)
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	// The CPU value is the sample type named "cpu" (nanoseconds).
	cpuIdx := -1
	for i, vt := range sampleTypes {
		if str(vt[0]) == "cpu" && str(vt[1]) == "nanoseconds" {
			cpuIdx = i
		}
	}
	if cpuIdx < 0 {
		return nil, fmt.Errorf("profile: no cpu/nanoseconds sample type")
	}
	p := &cpuProfile{}
	for _, s := range samples {
		if cpuIdx >= len(s.values) {
			return nil, fmt.Errorf("profile: sample has %d values, want > %d", len(s.values), cpuIdx)
		}
		ps := profSample{cpu: time.Duration(s.values[cpuIdx]), labels: map[string]string{}}
		for _, loc := range s.locs {
			for _, fid := range locFuncs[loc] {
				ps.stack = append(ps.stack, str(funcNames[fid]))
			}
		}
		for _, l := range s.labels {
			ps.labels[str(l.key)] = str(l.str)
		}
		p.samples = append(p.samples, ps)
	}
	return p, nil
}

// pbReader walks one protobuf message. Errors are sticky: after the first
// one, more reports false.
type pbReader struct {
	b   []byte
	err error
}

func (r *pbReader) more() bool { return r.err == nil && len(r.b) > 0 }

func (r *pbReader) varint() uint64 {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			r.fail("truncated varint")
			return 0
		}
		c := r.b[0]
		r.b = r.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
	}
	r.fail("varint overflow")
	return 0
}

func (r *pbReader) key() (field, wire int) {
	k := r.varint()
	return int(k >> 3), int(k & 7)
}

func (r *pbReader) bytes() []byte {
	n := r.varint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)) {
		r.fail("truncated field")
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

// uints reads a repeated integer field, packed (wire type 2) or not.
func (r *pbReader) uints(wire int, add func(uint64)) {
	switch wire {
	case 0:
		add(r.varint())
	case 2:
		p := pbReader{b: r.bytes()}
		for p.more() {
			add(p.varint())
		}
		r.err = errors.Join(r.err, p.err)
	default:
		r.skip(wire)
	}
}

func (r *pbReader) skip(wire int) {
	switch wire {
	case 0:
		r.varint()
	case 1:
		r.advance(8)
	case 2:
		r.bytes()
	case 5:
		r.advance(4)
	default:
		r.fail(fmt.Sprintf("unsupported wire type %d", wire))
	}
}

func (r *pbReader) advance(n int) {
	if n > len(r.b) {
		r.fail("truncated field")
		return
	}
	r.b = r.b[n:]
}

func (r *pbReader) fail(msg string) {
	if r.err == nil {
		r.err = errors.New(msg)
	}
}
