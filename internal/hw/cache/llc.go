// Package cache models the shared last-level CPU cache that the eADR-enabled
// platform turns into persistent storage. It is a set-associative write-back
// cache of 64 B lines with:
//
//   - per-set LRU replacement (the source of the paper's Figure 3(c) problem:
//     capacity evictions push isolated 64 B lines into the PMem and reawaken
//     write amplification);
//   - Intel CAT-style way partitioning with pseudo-locking — a reserved
//     partition's lines are never victims of ordinary replacement, which is
//     how CacheKV pins its sub-MemTable pool;
//   - explicit clflush / clwb / invalidate, and a non-temporal store path
//     that bypasses the cache entirely;
//   - a persistence-domain switch: on simulated power failure, eADR drains
//     every dirty line into the PMem device while ADR discards them.
//
// Dirty lines hold their own 64-byte payload; the PMem backing array only
// sees bytes when a line is written back. That separation is what makes
// crash simulation honest: under ADR, un-flushed stores genuinely vanish.
package cache

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"cachekv/internal/hw/pmem"
	"cachekv/internal/hw/sim"
)

// Domain selects the persistence domain of the platform.
type Domain int

const (
	// ADR keeps only the memory controller write-pending queue and the PMem
	// in the persistence domain: CPU caches are volatile and software must
	// clflush/clwb explicitly.
	ADR Domain = iota
	// EADR extends the persistence domain up to the CPU caches: dirty lines
	// survive power failure and flush instructions become unnecessary.
	EADR
)

func (d Domain) String() string {
	if d == EADR {
		return "eADR"
	}
	return "ADR"
}

const lineSize = 64

// PartitionID names a CAT allocation class. DefaultPartition is the shared
// pool every ordinary access uses.
type PartitionID int

// DefaultPartition is the unreserved portion of the cache.
const DefaultPartition PartitionID = 0

// maxWays bounds the associativity New accepts, so each set's way metadata
// can live inline in the set.
const maxWays = 16

// Way tags pack the line-aligned address with the line's state in the low
// bits an aligned address leaves free. An empty way has tag 0.
const (
	tagPresent = 1
	tagDirty   = 2
)

// way is one way's metadata; its 64 B payload lives in LLC.data.
type way struct {
	tag     uint64
	lruTick uint64
}

// set holds everything an access scans under the set lock in a few adjacent
// host cache lines: the lock, the LRU clock and the way tags.
type set struct {
	mu   sync.Mutex
	tick uint64
	ways [maxWays]way
}

// Stats counts cache events. Hits and Misses count line accesses through the
// hashed set array; accesses to pseudo-locked partitions are not counted.
type Stats struct {
	Hits       int64
	Misses     int64
	Evictions  int64 // capacity evictions (dirty or clean)
	Writebacks int64 // dirty lines pushed to PMem by eviction
	Flushes    int64 // lines written back by explicit clflush/clwb
}

// partition describes a contiguous run of ways granted to one allocation
// class, mirroring a CAT way mask.
type partition struct{ firstWay, nWays int }

// partTable is an immutable snapshot of the partition map. Reserve and
// Release publish a fresh copy, so the access path reads it without a lock.
type partTable struct {
	parts   []partition
	locked  []*lockedRegion // indexed by PartitionID; nil for unlocked ones
	regions []*lockedRegion // the live locked regions, for range sweeps
}

// lockedFor returns the locked region backing p, or nil for unlocked
// partitions.
func (t *partTable) lockedFor(p PartitionID) *lockedRegion {
	if p == DefaultPartition || int(p) >= len(t.locked) {
		return nil
	}
	return t.locked[p]
}

// lockedLine is one line held by a pseudo-locked region.
type lockedLine struct {
	dirty bool
	data  [lineSize]byte
}

// lockedRegion is the storage behind a pseudo-locked partition. Cache
// Pseudo-Locking guarantees that nothing else can evict the locked lines and
// the locked working set fits by construction, so the model keeps them in a
// dedicated exact-fit store instead of the hashed set array. Should a caller
// overcommit, the oldest line is written back FIFO (and counted) rather than
// corrupting anything.
type lockedRegion struct {
	mu       sync.Mutex
	capLines int
	lines    map[uint64]*lockedLine
	fifo     []uint64
}

// LLC is the modelled last-level cache.
type LLC struct {
	costs  *sim.CostModel
	dev    *pmem.Device
	domain Domain

	nSets int
	nWays int
	sets  []set
	data  [][lineSize]byte // payloads, indexed set*nWays + way

	partMu sync.Mutex // serializes Reserve and Release
	parts  atomic.Pointer[partTable]

	// gate, when set, intercepts every persistence-plane operation the cache
	// accepts (see sim.MemGate). The fault-injection harness installs it to
	// number crash-point events and to freeze the platform at a chosen one;
	// ordinary operation leaves it nil.
	gate atomic.Pointer[sim.MemGate]

	hits, misses, evictions, writebacks, flushes atomic.Int64
}

// callTally accumulates one call's events, so the shared counters, the tally
// cell and the clock are touched once per call instead of once per line.
// Every charge within a call lands under the same clock label, so the
// clock's per-layer tally and profile samples equal those of per-line
// charging.
type callTally struct {
	ns                                           int64
	hits, misses, evictions, writebacks, flushes int64
	overflows                                    int64 // locked-region writebacks: tallied, not in Stats
}

// commit publishes t and charges its virtual time to clk.
func (c *LLC) commit(clk *sim.Clock, t *callTally) {
	add(&c.hits, t.hits)
	add(&c.misses, t.misses)
	add(&c.evictions, t.evictions)
	add(&c.writebacks, t.writebacks)
	add(&c.flushes, t.flushes)
	if t.writebacks != 0 || t.overflows != 0 || t.flushes != 0 {
		if cell := clk.Cell(); cell != nil {
			add(&cell.LLCWritebackLines, t.writebacks+t.overflows)
			add(&cell.LLCFlushLines, t.flushes)
		}
	}
	clk.Advance(t.ns)
}

func add(ctr *atomic.Int64, n int64) {
	if n != 0 {
		ctr.Add(n)
	}
}

// Config sizes the cache. The paper's testbed LLC is 36 MB with (typically)
// 12 ways; experiments that restrict CacheKV to 3-30 MB do so with CAT
// partitions, not by shrinking the cache.
type Config struct {
	SizeBytes int
	Ways      int
	Domain    Domain
}

// DefaultConfig returns the paper's 36 MB, 12-way LLC in eADR mode.
func DefaultConfig() Config { return Config{SizeBytes: 36 << 20, Ways: 12, Domain: EADR} }

// New creates an LLC bound to the given PMem device. It panics if cfg asks
// for more than maxWays ways.
func New(cfg Config, dev *pmem.Device, cm *sim.CostModel) *LLC {
	if cm == nil {
		cm = sim.DefaultCosts()
	}
	if cfg.Ways <= 0 {
		cfg.Ways = 12
	}
	if cfg.Ways > maxWays {
		panic(fmt.Sprintf("cache: %d ways exceeds the model's maximum of %d", cfg.Ways, maxWays))
	}
	nSets := cfg.SizeBytes / (cfg.Ways * lineSize)
	if nSets < 1 {
		nSets = 1
	}
	c := &LLC{
		costs:  cm,
		dev:    dev,
		domain: cfg.Domain,
		nSets:  nSets,
		nWays:  cfg.Ways,
		sets:   make([]set, nSets),
		data:   make([][lineSize]byte, nSets*cfg.Ways),
	}
	// Partition 0 initially owns every way.
	c.parts.Store(&partTable{
		parts:  []partition{{firstWay: 0, nWays: cfg.Ways}},
		locked: []*lockedRegion{nil},
	})
	return c
}

// Domain returns the configured persistence domain.
func (c *LLC) Domain() Domain { return c.domain }

// SetGate installs g as the persistence-operation gate (nil removes it).
// Crash-schedule exploration uses the gate to number and suppress operations;
// see sim.MemGate for the interception contract.
func (c *LLC) SetGate(g sim.MemGate) {
	if g == nil {
		c.gate.Store(nil)
		return
	}
	c.gate.Store(&g)
}

// gateOp consults the installed gate, returning the permitted byte count
// (n when no gate is installed).
func (c *LLC) gateOp(op sim.MemOp, addr uint64, n int) int {
	if g := c.gate.Load(); g != nil {
		return (*g)(op, addr, n)
	}
	return n
}

// SizeBytes returns the total cache capacity.
func (c *LLC) SizeBytes() int { return c.nSets * c.nWays * lineSize }

// PartitionBytes returns the capacity granted to partition p.
func (c *LLC) PartitionBytes(p PartitionID) int {
	return c.parts.Load().parts[p].nWays * c.nSets * lineSize
}

// clone returns a copy of t that Reserve and Release edit before publishing
// it.
func (t *partTable) clone() *partTable {
	return &partTable{
		parts:   slices.Clone(t.parts),
		locked:  slices.Clone(t.locked),
		regions: slices.Clone(t.regions),
	}
}

// Reserve carves a pseudo-locked CAT partition of at least sizeBytes out of
// the default partition's ways and returns its ID. Lines installed under the
// returned partition are never victims of ordinary replacement. It fails if
// the default partition would drop below one way.
func (c *LLC) Reserve(sizeBytes int) (PartitionID, error) {
	c.partMu.Lock()
	defer c.partMu.Unlock()
	perWay := c.nSets * lineSize
	ways := (sizeBytes + perWay - 1) / perWay
	if ways < 1 {
		ways = 1
	}
	t := c.parts.Load().clone()
	def := &t.parts[DefaultPartition]
	if def.nWays-ways < 1 {
		return 0, fmt.Errorf("cache: cannot reserve %d ways, only %d available", ways, def.nWays-1)
	}
	// Take ways from the top of the default range.
	def.nWays -= ways
	t.parts = append(t.parts, partition{firstWay: def.firstWay + def.nWays, nWays: ways})
	lr := &lockedRegion{capLines: ways * c.nSets, lines: make(map[uint64]*lockedLine)}
	t.locked = append(t.locked, lr)
	t.regions = append(t.regions, lr)
	c.parts.Store(t)
	return PartitionID(len(t.parts) - 1), nil
}

// Release returns a reserved partition's ways to the default pool and drops
// (without writeback) any lines it still holds; callers flush first if the
// contents matter.
func (c *LLC) Release(p PartitionID) {
	if p == DefaultPartition {
		return
	}
	c.partMu.Lock()
	defer c.partMu.Unlock()
	t := c.parts.Load().clone()
	part, def := t.parts[p], &t.parts[DefaultPartition]
	if part.firstWay == def.firstWay+def.nWays {
		def.nWays += part.nWays
	}
	t.parts[p].nWays = 0
	t.regions = slices.DeleteFunc(t.regions, func(lr *lockedRegion) bool { return lr == t.locked[p] })
	t.locked[p] = nil
	c.parts.Store(t)
}

// setFor hashes the line address to a set index. Modern LLCs select slice
// and set through an address hash, so consecutive lines land in unrelated
// sets — which is why capacity evictions emit cachelines in a shuffled order
// and reawaken write amplification once flush instructions are removed (the
// paper's Figure 3(c) / Observation 1: "the small-sized and randomized
// eviction will amplify the internal write traffic").
func (c *LLC) setFor(addr uint64) int {
	line := addr / lineSize
	line ^= line >> 17
	line *= 0x9E3779B97F4A7C15
	line ^= line >> 29
	return int(line % uint64(c.nSets))
}

// findWay locates the line at base within set si, searching every way (an
// address may have been installed under any partition). The set lock must
// be held.
func (c *LLC) findWay(si int, base uint64) int {
	want := base | tagPresent
	for i, w := range c.sets[si].ways[:c.nWays] {
		if w.tag&^tagDirty == want {
			return i
		}
	}
	return -1
}

// victimWay picks the least-recently-used way within the partition's range.
func victimWay(s *set, part partition) int {
	best := -1
	for w := part.firstWay; w < part.firstWay+part.nWays; w++ {
		if s.ways[w].tag == 0 {
			return w
		}
		if best == -1 || s.ways[w].lruTick < s.ways[best].lruTick {
			best = w
		}
	}
	return best
}

// install places base into set si within the partition's ways, evicting the
// LRU line of that partition if necessary, and returns the way index. The
// set lock must be held; eviction writeback is performed with the lock held
// (the model tolerates this because the device never re-enters the cache).
// The new line's payload is left for the caller to fill.
func (c *LLC) install(clk *sim.Clock, t *callTally, si int, base uint64, part partition) int {
	s := &c.sets[si]
	w := victimWay(s, part)
	if w < 0 {
		panic("cache: partition has no ways")
	}
	if v := s.ways[w].tag; v != 0 {
		t.evictions++
		if v&tagDirty != 0 {
			t.writebacks++
			c.dev.WriteLines(clk, v&^(lineSize-1), c.data[si*c.nWays+w][:])
		}
	}
	s.tick++
	s.ways[w] = way{tag: base | tagPresent, lruTick: s.tick}
	return w
}

// lineSpan returns the first line an access of n bytes at addr touches: the
// line's base, the offset into it, and how many of the n bytes fall in it.
func lineSpan(addr uint64, n int) (base uint64, off, k int) {
	base = addr &^ (lineSize - 1)
	off = int(addr - base)
	k = lineSize - off
	if k > n {
		k = n
	}
	return base, off, k
}

// Write stores data at addr through the cache under partition p. Partial-line
// writes to absent lines fetch the line from PMem first (write-allocate).
// data need not be aligned.
func (c *LLC) Write(clk *sim.Clock, addr uint64, data []byte, p PartitionID) {
	if n := c.gateOp(sim.MemOpWrite, addr, len(data)); n < len(data) {
		if n <= 0 {
			return
		}
		data = data[:n]
	}
	pt := c.parts.Load()
	if lr := pt.lockedFor(p); lr != nil {
		c.lockedWrite(clk, lr, addr, data)
		return
	}
	part := pt.parts[p]
	var t callTally
	for len(data) > 0 {
		base, off, n := lineSpan(addr, len(data))
		c.writeLine(clk, &t, base, off, data[:n], part)
		addr += uint64(n)
		data = data[n:]
	}
	c.commit(clk, &t)
}

func (c *LLC) writeLine(clk *sim.Clock, t *callTally, base uint64, off int, data []byte, part partition) {
	si := c.setFor(base)
	s := &c.sets[si]
	s.mu.Lock()
	w := c.findWay(si, base)
	if w >= 0 {
		t.hits++
		t.ns += c.costs.CacheHitWrite
	} else {
		t.misses++
		t.ns += c.costs.CacheHitWrite + c.costs.CacheMissExtra
		w = c.install(clk, t, si, base, part)
		if off != 0 || len(data) != lineSize {
			// Write-allocate: fetch the rest of the line from the media.
			c.dev.Read(clk, base, c.data[si*c.nWays+w][:])
		}
	}
	copy(c.data[si*c.nWays+w][off:], data)
	s.tick++
	s.ways[w].tag |= tagDirty
	s.ways[w].lruTick = s.tick
	s.mu.Unlock()
}

// Read loads len(buf) bytes at addr through the cache under partition p.
func (c *LLC) Read(clk *sim.Clock, addr uint64, buf []byte, p PartitionID) {
	if c.gateOp(sim.MemOpRead, addr, len(buf)) < len(buf) {
		// Frozen platform: serve the currently visible content without
		// installing lines, so the read causes no eviction writebacks.
		c.readBypass(addr, buf)
		return
	}
	pt := c.parts.Load()
	if lr := pt.lockedFor(p); lr != nil {
		c.lockedRead(clk, lr, addr, buf)
		return
	}
	part := pt.parts[p]
	var t callTally
	for len(buf) > 0 {
		base, off, n := lineSpan(addr, len(buf))
		c.readLine(clk, &t, base, off, buf[:n], part)
		addr += uint64(n)
		buf = buf[n:]
	}
	c.commit(clk, &t)
}

func (c *LLC) readLine(clk *sim.Clock, t *callTally, base uint64, off int, buf []byte, part partition) {
	si := c.setFor(base)
	s := &c.sets[si]
	s.mu.Lock()
	w := c.findWay(si, base)
	if w >= 0 {
		t.hits++
		t.ns += c.costs.CacheHitRead
	} else {
		t.misses++
		t.ns += c.costs.CacheHitRead + c.costs.CacheMissExtra
		var fill [lineSize]byte
		c.dev.Read(clk, base, fill[:])
		w = c.install(clk, t, si, base, part)
		c.data[si*c.nWays+w] = fill
	}
	copy(buf, c.data[si*c.nWays+w][off:])
	s.tick++
	s.ways[w].lruTick = s.tick
	s.mu.Unlock()
}

// readBypass serves a read from the currently visible content — the cached
// line when present, the media backing otherwise — without installing lines
// or touching LRU state. The gate's freeze mode uses it so that reads issued
// after the crash point cannot mutate what is durable.
func (c *LLC) readBypass(addr uint64, buf []byte) {
	var ln [lineSize]byte
	for len(buf) > 0 {
		base, off, n := lineSpan(addr, len(buf))
		if c.peekLine(base, &ln) {
			copy(buf[:n], ln[off:])
		} else {
			c.dev.LoadRaw(addr, buf[:n])
		}
		addr += uint64(n)
		buf = buf[n:]
	}
}

// lockedWrite stores into a pseudo-locked region's lines, allocating each on
// first touch (with write-allocate fill for partial first writes). Like a set
// lock, the region lock is held across media fills.
func (c *LLC) lockedWrite(clk *sim.Clock, lr *lockedRegion, addr uint64, data []byte) {
	var t callTally
	lr.mu.Lock()
	for len(data) > 0 {
		base, off, n := lineSpan(addr, len(data))
		t.ns += c.costs.CacheHitWrite
		ln, ok := lr.lines[base]
		if !ok {
			t.ns += c.costs.CacheMissExtra
			if len(lr.lines) >= lr.capLines {
				c.lockedOverflow(clk, &t, lr)
			}
			ln = &lockedLine{}
			if off != 0 || n != lineSize {
				c.dev.Read(clk, base, ln.data[:])
			}
			lr.lines[base] = ln
			lr.fifo = append(lr.fifo, base)
		}
		copy(ln.data[off:], data[:n])
		ln.dirty = true
		addr += uint64(n)
		data = data[n:]
	}
	lr.mu.Unlock()
	c.commit(clk, &t)
}

// lockedOverflow makes room in an overcommitted locked region by writing
// back its oldest line FIFO. lr.mu must be held.
func (c *LLC) lockedOverflow(clk *sim.Clock, t *callTally, lr *lockedRegion) {
	for len(lr.fifo) > 0 {
		old := lr.fifo[0]
		lr.fifo = lr.fifo[1:]
		if v, present := lr.lines[old]; present {
			if v.dirty {
				t.overflows++
				c.dev.WriteLines(clk, old, v.data[:])
			}
			delete(lr.lines, old)
			return
		}
	}
}

// lockedRead loads from a pseudo-locked region, filling from media on a miss.
func (c *LLC) lockedRead(clk *sim.Clock, lr *lockedRegion, addr uint64, buf []byte) {
	var t callTally
	lr.mu.Lock()
	for len(buf) > 0 {
		base, off, n := lineSpan(addr, len(buf))
		t.ns += c.costs.CacheHitRead
		ln, ok := lr.lines[base]
		if !ok {
			t.ns += c.costs.CacheMissExtra
			ln = &lockedLine{}
			c.dev.Read(clk, base, ln.data[:])
			lr.lines[base] = ln
			lr.fifo = append(lr.fifo, base)
		}
		copy(buf[:n], ln.data[off:])
		addr += uint64(n)
		buf = buf[n:]
	}
	lr.mu.Unlock()
	c.commit(clk, &t)
}

// lockedRegions returns the live locked regions.
func (c *LLC) lockedRegions() []*lockedRegion { return c.parts.Load().regions }

// Flush performs clflush over [addr, addr+n): dirty lines are written back to
// the PMem (arriving at the XPBuffer in ascending address order, which is
// what lets adjacent lines combine) and every touched line is invalidated.
func (c *LLC) Flush(clk *sim.Clock, addr uint64, n int) {
	if g := c.gateOp(sim.MemOpFlush, addr, n); g < n {
		// A torn flush writes back only the leading lines: the crash landed
		// mid-loop, before the trailing fence completed.
		if g <= 0 {
			return
		}
		n = g
	}
	c.flushRange(clk, addr, n, true)
}

// FlushOpt performs clwb: dirty lines are written back but remain valid
// (clean) in the cache.
func (c *LLC) FlushOpt(clk *sim.Clock, addr uint64, n int) {
	if g := c.gateOp(sim.MemOpFlushOpt, addr, n); g < n {
		if g <= 0 {
			return
		}
		n = g
	}
	c.flushRange(clk, addr, n, false)
}

func (c *LLC) flushRange(clk *sim.Clock, addr uint64, n int, invalidate bool) {
	if n <= 0 {
		return
	}
	first := addr &^ (lineSize - 1)
	last := (addr + uint64(n) - 1) &^ (lineSize - 1)
	regions := c.lockedRegions()
	var t callTally
	for base := first; ; base += lineSize {
		si := c.setFor(base)
		s := &c.sets[si]
		s.mu.Lock()
		if w := c.findWay(si, base); w >= 0 {
			if s.ways[w].tag&tagDirty != 0 {
				t.flushes++
				c.dev.WriteLines(clk, base, c.data[si*c.nWays+w][:])
				s.ways[w].tag &^= tagDirty
			}
			if invalidate {
				s.ways[w] = way{}
			}
		}
		s.mu.Unlock()
		for _, lr := range regions {
			lr.mu.Lock()
			if ln, ok := lr.lines[base]; ok {
				if ln.dirty {
					t.flushes++
					c.dev.WriteLines(clk, base, ln.data[:])
					ln.dirty = false
				}
				if invalidate {
					delete(lr.lines, base)
				}
			}
			lr.mu.Unlock()
		}
		t.ns += c.costs.CLFlush
		if base == last {
			break
		}
	}
	t.ns += c.costs.Fence
	c.commit(clk, &t)
}

// Invalidate drops lines in [addr, addr+n) without writing them back. It
// models reusing a region whose contents were already copied elsewhere.
func (c *LLC) Invalidate(addr uint64, n int) {
	if c.gateOp(sim.MemOpInvalidate, addr, n) < n {
		return
	}
	c.invalidate(addr, n)
}

// invalidate is Invalidate without gate interception; internal paths that
// already passed the gate (NTWrite) use it.
func (c *LLC) invalidate(addr uint64, n int) {
	if n <= 0 {
		return
	}
	first := addr &^ (lineSize - 1)
	last := (addr + uint64(n) - 1) &^ (lineSize - 1)
	regions := c.lockedRegions()
	for base := first; ; base += lineSize {
		si := c.setFor(base)
		s := &c.sets[si]
		s.mu.Lock()
		if w := c.findWay(si, base); w >= 0 {
			s.ways[w] = way{}
		}
		s.mu.Unlock()
		for _, lr := range regions {
			lr.mu.Lock()
			delete(lr.lines, base)
			lr.mu.Unlock()
		}
		if base == last {
			break
		}
	}
}

// NTWrite stores data at addr with non-temporal semantics: the cache is
// bypassed (stale copies are dropped) and full cachelines stream straight
// into the PMem's XPBuffer, which is why a sub-MemTable-sized NT copy fills
// whole XPLines and avoids read-modify-write amplification.
func (c *LLC) NTWrite(clk *sim.Clock, addr uint64, data []byte) {
	if len(data) == 0 {
		return
	}
	if n := c.gateOp(sim.MemOpNTWrite, addr, len(data)); n < len(data) {
		if n <= 0 {
			return
		}
		data = data[:n]
	}
	// Align the bulk of the transfer to cachelines; ragged edges pay a
	// read-modify-write at line granularity. Edge bytes are merged from the
	// *visible* content — dirty cache lines included — not the stale backing.
	base := addr &^ (lineSize - 1)
	head := int(addr - base)
	padded := head + len(data)
	if rem := padded % lineSize; rem != 0 {
		padded += lineSize - rem
	}
	buf := make([]byte, padded)
	if head > 0 || padded != len(data) {
		c.dev.LoadRaw(base, buf)
		var ln [lineSize]byte
		if c.peekLine(base, &ln) {
			copy(buf[:lineSize], ln[:])
		}
		lastBase := base + uint64(padded) - lineSize
		if lastBase != base && c.peekLine(lastBase, &ln) {
			copy(buf[padded-lineSize:], ln[:])
		}
	}
	copy(buf[head:], data)
	// Stale cached copies are dropped only after the edge merge read them.
	c.invalidate(addr, len(data))
	lines := padded / lineSize
	clk.Advance(int64(lines) * c.costs.NTStore)
	c.dev.WriteLinesPipelined(clk, base, buf)
	clk.Advance(c.costs.Fence)
}

// peekLine copies the line's current cached content into dst, searching both
// the set array and every locked region, and reports whether it was cached.
func (c *LLC) peekLine(base uint64, dst *[lineSize]byte) bool {
	si := c.setFor(base)
	s := &c.sets[si]
	s.mu.Lock()
	if w := c.findWay(si, base); w >= 0 {
		*dst = c.data[si*c.nWays+w]
		s.mu.Unlock()
		return true
	}
	s.mu.Unlock()
	for _, lr := range c.lockedRegions() {
		lr.mu.Lock()
		if ln, ok := lr.lines[base]; ok {
			*dst = ln.data
			lr.mu.Unlock()
			return true
		}
		lr.mu.Unlock()
	}
	return false
}

// Contains reports whether addr's line is present (and if so, dirty). Tests
// and crash accounting use it; engines must not.
func (c *LLC) Contains(addr uint64) (present, dirty bool) {
	base := addr &^ (lineSize - 1)
	si := c.setFor(base)
	s := &c.sets[si]
	s.mu.Lock()
	if w := c.findWay(si, base); w >= 0 {
		d := s.ways[w].tag&tagDirty != 0
		s.mu.Unlock()
		return true, d
	}
	s.mu.Unlock()
	for _, lr := range c.lockedRegions() {
		lr.mu.Lock()
		if ln, ok := lr.lines[base]; ok {
			d := ln.dirty
			lr.mu.Unlock()
			return true, d
		}
		lr.mu.Unlock()
	}
	return false, false
}

// Crash applies the persistence-domain rule at power failure. Under eADR all
// dirty lines drain to the PMem backing (content only — the event counters do
// not move, as the platform does this with stored energy, not software).
// Under ADR dirty lines are discarded. In both cases the cache ends empty.
func (c *LLC) Crash() {
	for si := range c.sets {
		s := &c.sets[si]
		s.mu.Lock()
		for w := range s.ways[:c.nWays] {
			if tag := s.ways[w].tag; tag&tagDirty != 0 && c.domain == EADR {
				c.dev.StoreRaw(tag&^(lineSize-1), c.data[si*c.nWays+w][:])
			}
			s.ways[w] = way{}
		}
		s.mu.Unlock()
	}
	for _, lr := range c.lockedRegions() {
		lr.mu.Lock()
		for addr, ln := range lr.lines {
			if ln.dirty && c.domain == EADR {
				c.dev.StoreRaw(addr, ln.data[:])
			}
			delete(lr.lines, addr)
		}
		lr.fifo = lr.fifo[:0]
		lr.mu.Unlock()
	}
}

// Stats returns a copy of the event counters.
func (c *LLC) Stats() Stats {
	return Stats{
		Hits:       c.hits.Load(),
		Misses:     c.misses.Load(),
		Evictions:  c.evictions.Load(),
		Writebacks: c.writebacks.Load(),
		Flushes:    c.flushes.Load(),
	}
}
