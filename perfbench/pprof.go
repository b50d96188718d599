package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The standard library writes CPU profiles in the gzipped profile.proto
// format but ships no reader, so this file decodes the few fields the module
// folding needs: samples (location ids and values), locations (their inlined
// function lines, innermost first), functions (name) and the string table.

type profile struct {
	nsIndex int // index of the cpu/nanoseconds value in each sample
	samples []profSample
	locs    map[uint64][]uint64 // location id -> function ids, innermost first
	funcs   map[uint64]string   // function id -> name
}

type profSample struct {
	locs   []uint64 // leaf first
	values []int64
}

func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{nsIndex: -1, locs: map[uint64][]uint64{}, funcs: map[uint64]string{}}
	var strs []string
	var sampleTypes [][2]uint64 // (type, unit) string indexes
	funcNames := map[uint64]uint64{}
	err = fields(data, func(f int, wire int, v uint64, b []byte) error {
		switch f {
		case 1: // sample_type
			var vt [2]uint64
			err := fields(b, func(f, _ int, v uint64, _ []byte) error {
				if f == 1 || f == 2 {
					vt[f-1] = v
				}
				return nil
			})
			sampleTypes = append(sampleTypes, vt)
			return err
		case 2: // sample
			var s profSample
			err := fields(b, func(f, wire int, v uint64, b []byte) error {
				switch f {
				case 1:
					return repeated(wire, v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return repeated(wire, v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(f, _ int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return fields(b, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locs[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := fields(b, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	for id, name := range funcNames {
		p.funcs[id] = str(name)
	}
	for i, vt := range sampleTypes {
		if str(vt[1]) == "nanoseconds" {
			p.nsIndex = i
		}
	}
	if p.nsIndex < 0 {
		return nil, errors.New("profile: no nanoseconds sample value")
	}
	return p, nil
}

// fields walks the protobuf message in b, calling fn with each field number,
// its wire type, and its varint value or length-delimited bytes.
func fields(b []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errors.New("profile: bad length")
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(field, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}

// repeated decodes a repeated integer field in either its packed or its
// one-value-per-field encoding.
func repeated(wire int, v uint64, b []byte, add func(uint64)) error {
	if wire != 2 {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		add(x)
		b = b[n:]
	}
	return nil
}

// modules are the layers host CPU time is folded into: the repository's
// packages, background GC, and other for everything else (the runtime,
// helpers outside this list, and the benchmark itself).
var modules = []string{
	"cachekv", "core", "kvstore", "skiplist", "memfilter", "lsm", "sstable", "block",
	"blockcache", "bloom", "pmemfs", "hw", "hw.cache", "hw.pmem", "hw.sim", "obs",
	"runtime.gc", "other",
}

// foldByModule charges each sample's CPU ns to the innermost frame on its
// stack that belongs to the repository, so standard-library helpers such as
// bytes.Compare and the mutex slow path count toward the module that called
// them; samples of the background GC workers go to runtime.gc. It returns the
// ns per module and the profile's total.
func foldByModule(p *profile) (map[string]int64, int64) {
	out := make(map[string]int64, len(modules))
	var total int64
	for _, s := range p.samples {
		if p.nsIndex >= len(s.values) {
			continue
		}
		ns := s.values[p.nsIndex]
		total += ns
		out[p.moduleOf(s)] += ns
	}
	return out, total
}

func (p *profile) moduleOf(s profSample) string {
	mod := ""
	for _, loc := range s.locs {
		for _, fn := range p.locs[loc] {
			name := p.funcs[fn]
			if name == "runtime.gcBgMarkWorker" {
				return "runtime.gc"
			}
			if mod == "" {
				mod = repoModule(name)
			}
		}
	}
	if mod == "" {
		return "other"
	}
	return mod
}

// repoModule maps a function name to its repository module, or "" when the
// function is not the repository's.
func repoModule(fn string) string {
	pkg := fn
	if i := strings.LastIndexByte(pkg, '/'); i >= 0 {
		if j := strings.IndexByte(pkg[i:], '.'); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.IndexByte(pkg, '.'); j >= 0 {
		pkg = pkg[:j]
	}
	if pkg == "cachekv" {
		return "cachekv"
	}
	rel, ok := strings.CutPrefix(pkg, "cachekv/internal/")
	if !ok {
		return ""
	}
	switch rel {
	case "core", "kvstore", "skiplist", "memfilter", "lsm", "sstable", "block",
		"blockcache", "bloom", "pmemfs", "hw", "obs", "hw/cache", "hw/pmem", "hw/sim":
		return strings.ReplaceAll(rel, "/", ".")
	}
	return "other"
}
