package main

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"cachekv/internal/bench"
	"cachekv/internal/hw/sim"
	"cachekv/internal/util"
)

const (
	keySize   = 16
	valueSize = 64
	userBytes = keySize + valueSize // user bytes per record
)

// workload is one named closed-loop traffic mix. Each client is a session
// that issues its next operation only after the previous one returned.
type workload struct {
	name     string
	records  int
	clients  int
	shards   int     // Options.Shards; 0 opens the unsharded engine
	readFrac float64 // share of Gets; the rest update existing records
	zipfian  bool    // zipfian key popularity; uniform otherwise
	flush    bool    // flush the load into the LSM tree before timing
	warmup   int     // untimed operations per client before the timed phase
	setups   int     // set-ups timed for setup_s; small stores repeat more
	// verifyAll checks every record after the crash; otherwise a strided
	// sample of about sampleChecks records is read back.
	verifyAll bool
}

const sampleChecks = 50_000

// The workloads, sized against the store's caches: the 12 MiB sub-MemTable
// pool pinned in the 36 MB LLC, and the 8 MiB DRAM block cache. README.md
// explains why each exists.
var workloads = []workload{
	// YCSB-C on data that fits the pool (about 4 MB): the paper's read path
	// (filters, sub-skiplists, lazy index, pinned LLC region) and nothing of
	// the LSM tree.
	{name: "ycsb-c-pool", records: 50_000, clients: 1, readFrac: 1, zipfian: true, warmup: 20_000,
		setups: 9},
	// Uniform Gets over about 40 MB flushed into the LSM tree, more than the
	// unpinned LLC plus the block cache: the storage read path.
	{name: "ycsb-c-lsm", records: 500_000, clients: 1, readFrac: 1, flush: true, warmup: 20_000,
		setups: 3},
	// YCSB-A on two shards with two clients over twice the pool: the write
	// path, group commit, background flush/spill/compaction, flow control
	// and recovery, with reads running beside the writes.
	{name: "ycsb-a-sharded", records: 300_000, clients: 2, shards: 2, readFrac: 0.5, zipfian: true,
		flush: true, warmup: 10_000, setups: 3, verifyAll: true},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// keyset holds the records' keys: the scrambled record keys of
// internal/bench, the same for every seed, so runs differ only in the access
// sequence and the values. Access draws come from the internal/bench
// generators, which return a key; item maps it back to its record number.
type keyset struct {
	n       int
	keys    [][keySize]byte
	item    map[[keySize]byte]int32
	zipf    *bench.ZipfianKeys
	uniform bench.UniformKeys
	drawOff int64 // seed-derived offset of the uniform draw sequence
}

func newKeyset(n int, zipfian bool, seed uint64) (*keyset, error) {
	ks := &keyset{
		n:       n,
		keys:    make([][keySize]byte, n),
		item:    make(map[[keySize]byte]int32, n),
		uniform: bench.UniformKeys{N: int64(n)},
		drawOff: int64(util.Mix64(seed) >> 2),
	}
	var buf []byte
	for i := 0; i < n; i++ {
		buf = bench.LoadKeys{}.Key(buf, int64(i), nil)
		copy(ks.keys[i][:], buf)
		if _, dup := ks.item[ks.keys[i]]; dup {
			return nil, fmt.Errorf("record keys collide at record %d", i)
		}
		ks.item[ks.keys[i]] = int32(i)
	}
	if zipfian {
		ks.zipf = bench.NewZipfian(int64(n))
	}
	return ks, nil
}

// draw returns the generator's key for access number i and its item. The
// zipfian draw comes from rng; the uniform one is a function of i alone.
func (ks *keyset) draw(buf []byte, i int64, rng *sim.RNG) ([]byte, int) {
	if ks.zipf != nil {
		buf = ks.zipf.Key(buf, i, rng)
	} else {
		buf = ks.uniform.Key(buf, ks.drawOff+i, nil)
	}
	var k [keySize]byte
	copy(k[:], buf)
	item, ok := ks.item[k]
	if !ok {
		panic(fmt.Sprintf("generator produced unknown key %q", buf))
	}
	return buf, int(item)
}

// model is the oracle's per-record history. Every record has one writing
// client (item % clients), so its versions are totally ordered: issued is
// raised before a Put starts and acked after it returns without error.
type model struct {
	seed   uint64
	issued []atomic.Uint32
	acked  []atomic.Uint32
}

func newModel(n int, seed uint64) *model {
	return &model{seed: seed, issued: make([]atomic.Uint32, n), acked: make([]atomic.Uint32, n)}
}

// value encodes version ver of item into dst: item, version, and a filler
// derived from both and the seed, so any byte that does not belong shows.
func (m *model) value(dst []byte, item int, ver uint32) []byte {
	dst = dst[:valueSize]
	binary.LittleEndian.PutUint64(dst[0:], uint64(item))
	binary.LittleEndian.PutUint64(dst[8:], uint64(ver))
	h := m.seed ^ uint64(item)<<32 ^ uint64(ver)
	for off := 16; off < valueSize; off += 8 {
		h = util.Mix64(h)
		binary.LittleEndian.PutUint64(dst[off:], h)
	}
	return dst
}

// check validates a value read for item: it must be a well-formed value of
// that item, with a version no older than lo (the last write acknowledged
// before the read began) and no newer than hi (the last write issued by the
// time it ended).
func (m *model) check(v []byte, item int, lo, hi uint32, scratch []byte) error {
	if len(v) != valueSize {
		return fmt.Errorf("item %d: value has %d bytes, want %d", item, len(v), valueSize)
	}
	got := binary.LittleEndian.Uint64(v[0:])
	ver := binary.LittleEndian.Uint64(v[8:])
	if got != uint64(item) {
		return fmt.Errorf("item %d: read the value of item %d", item, got)
	}
	if ver < uint64(lo) || ver > uint64(hi) {
		return fmt.Errorf("item %d: read version %d, want %d..%d", item, ver, lo, hi)
	}
	want := m.value(scratch, item, uint32(ver))
	for i := range want {
		if v[i] != want[i] {
			return fmt.Errorf("item %d: version %d is corrupt at byte %d", item, ver, i)
		}
	}
	return nil
}
