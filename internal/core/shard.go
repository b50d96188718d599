package core

// shard.go implements the sharded multi-core deployment of CacheKV: the
// keyspace is hash-partitioned across N full engine instances — each with its
// own sub-MemTable pool, flush/spill/index pipelines, ImmZone, LSM tree, and
// lock domain — behind a router that preserves the kvstore.DB surface. A
// write that touches one shard commits on the caller's thread exactly like
// the classic engine: one append into the caller's core's sub-MemTable of
// that shard and one header CAS. A batch that spans shards goes through
// two-phase commit: per-shard prepare records plus a single commit marker in
// a global commit log (twopc.go), so recovery can resolve in-doubt batches
// all-or-nothing.
//
// The LLC is way-granular, so the router reserves ONE pinned partition sized
// for the sum of all shard pools and hands it to every shard engine
// (Options.SharedPartition); per-shard pool regions are distinct PMem ranges
// inside that shared partition's capacity.

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"

	"cachekv/internal/hw"
	"cachekv/internal/hw/cache"
	"cachekv/internal/kvstore"
	"cachekv/internal/lsm"
	"cachekv/internal/obs"
	"cachekv/internal/util"
)

// ShardedOptions configure OpenSharded. The Base options carry TOTAL budgets
// (pool, ImmZone, FS, manifest) that are divided across shards, so a sharded
// store consumes the same pinned-cache and PMem budget as a single-shard one.
type ShardedOptions struct {
	// Shards is the number of engine shards (>= 1).
	Shards int
	// PrepareLogBytes / CommitLogBytes size the per-shard two-phase prepare
	// logs and the global commit-marker log (defaults 256 KiB each).
	PrepareLogBytes uint64
	CommitLogBytes  uint64
	// Base is the per-engine configuration; PoolBytes, ImmZoneBytes, FSBytes
	// and ManifestBytes are totals split across shards, SubMemTableBytes is
	// clamped so every shard keeps at least two slots.
	Base Options
}

const defaultTwoPCLogBytes = 256 << 10

func (o ShardedOptions) withDefaults() ShardedOptions {
	if o.Shards < 1 {
		o.Shards = 1
	}
	if o.PrepareLogBytes == 0 {
		o.PrepareLogBytes = defaultTwoPCLogBytes
	}
	if o.CommitLogBytes == 0 {
		o.CommitLogBytes = defaultTwoPCLogBytes
	}
	o.Base = o.Base.withDefaults()
	return o
}

// shardOptions derives shard k's engine options from the totals.
func (o ShardedOptions) shardOptions(k int, prefix string, seq *atomic.Uint64, part *cache.PartitionID) Options {
	n := uint64(o.Shards)
	eo := o.Base
	eo.Shard = k
	eo.RegionPrefix = fmt.Sprintf("%s.s%d", prefix, k)
	eo.SharedSeq = seq
	eo.SharedPartition = part

	eo.PoolBytes = o.Base.PoolBytes / n
	if min := uint64(poolHeaderBytes + 2*(64<<10)); eo.PoolBytes < min {
		eo.PoolBytes = min
	}
	// Keep at least two slots per shard so one can flush while the other
	// absorbs writes.
	if max := (eo.PoolBytes - poolHeaderBytes) / 2; eo.SubMemTableBytes > max {
		eo.SubMemTableBytes = max &^ 7
	}
	if eo.SubMemTableBytes < 64<<10 {
		eo.SubMemTableBytes = 64 << 10
	}
	eo.ImmZoneBytes = o.Base.ImmZoneBytes / n
	if min := 2 * eo.PoolBytes; eo.ImmZoneBytes < min {
		eo.ImmZoneBytes = min
	}
	if eo.ImmZoneBytes < 1<<20 {
		eo.ImmZoneBytes = 1 << 20
	}
	eo.FSBytes = o.Base.FSBytes / n
	if eo.FSBytes < 8<<20 {
		eo.FSBytes = 8 << 20
	}
	eo.ManifestBytes = o.Base.ManifestBytes / n
	if eo.ManifestBytes < 1<<20 {
		eo.ManifestBytes = 1 << 20
	}
	return eo
}

// Sharded is the N-shard CacheKV deployment. It implements kvstore.DB.
type Sharded struct {
	m    *hw.Machine
	opts ShardedOptions

	prefix  string
	seq     *atomic.Uint64
	part    cache.PartitionID
	ownPart bool

	shards []*Engine
	tpc    *twoPC

	crossBatches atomic.Int64 // cross-shard two-phase batches committed

	trace  *obs.Trace
	closed atomic.Bool
	halted atomic.Bool
}

// OpenSharded creates (or recovers) an N-shard CacheKV deployment on m.
func OpenSharded(m *hw.Machine, o ShardedOptions, th *hw.Thread) (*Sharded, error) {
	o = o.withDefaults()
	prefix := o.Base.RegionPrefix
	if prefix == "" {
		prefix = "cachekv"
	}
	sh := &Sharded{
		m:      m,
		opts:   o,
		prefix: prefix,
		trace:  o.Base.Trace,
	}
	if o.Base.SharedSeq != nil {
		sh.seq = o.Base.SharedSeq
	} else {
		sh.seq = new(atomic.Uint64)
	}
	if o.Base.SharedPartition != nil {
		sh.part = *o.Base.SharedPartition
	} else {
		part, err := m.Cache.Reserve(int(o.Base.PoolBytes))
		if err != nil {
			return nil, fmt.Errorf("cachekv: pinning sharded pool: %w", err)
		}
		sh.part = part
		sh.ownPart = true
	}

	for k := 0; k < o.Shards; k++ {
		eo := o.shardOptions(k, prefix, sh.seq, &sh.part)
		eng, err := Open(m, eo, th)
		if err != nil {
			sh.teardown(th)
			return nil, fmt.Errorf("cachekv: opening shard %d/%d: %w", k, o.Shards, err)
		}
		sh.shards = append(sh.shards, eng)
	}

	// Two-phase commit logs, and replay of any in-doubt cross-shard groups.
	tpc, err := openTwoPC(sh, th)
	if err != nil {
		sh.teardown(th)
		return nil, err
	}
	sh.tpc = tpc
	// Wire the two-phase log occupancy into each shard's flow controller as
	// its WAL pressure signal: a safety valve above the half-capacity
	// auto-reset, so runaway cross-shard traffic escalates admission before a
	// log-full failure.
	walCap := o.PrepareLogBytes + o.CommitLogBytes
	for k := range sh.shards {
		k := k
		sh.shards[k].flow.setWALSignal(func() uint64 {
			return tpc.prepBytes[k].Load() + tpc.commitBytes.Load()
		}, walCap*3/4, walCap*15/16)
	}

	return sh, nil
}

// teardown closes whatever opened during a failed OpenSharded.
func (sh *Sharded) teardown(th *hw.Thread) {
	for _, e := range sh.shards {
		_ = e.Close(th)
	}
	if sh.ownPart {
		sh.m.Cache.Release(sh.part)
	}
}

// ShardOf returns the shard index key routes to: a hash partition, so every
// version of a key lives in exactly one shard and per-key max-seq resolution
// stays shard-local.
func (sh *Sharded) ShardOf(key []byte) int {
	return int(util.Hash64(key) % uint64(len(sh.shards)))
}

// Shards returns the shard count.
func (sh *Sharded) Shards() int { return len(sh.shards) }

// Shard exposes shard k's engine (tests and tooling).
func (sh *Sharded) Shard(k int) *Engine { return sh.shards[k] }

func (sh *Sharded) err() error {
	if sh.closed.Load() {
		return errEngineClosed
	}
	if sh.halted.Load() {
		return errEngineCrashed
	}
	return nil
}

// Name implements kvstore.DB.
func (sh *Sharded) Name() string {
	return fmt.Sprintf("CacheKV(shards=%d)", len(sh.shards))
}

func (sh *Sharded) write1(th *hw.Thread, key, value []byte, kind util.ValueKind, deadlineNs int64) error {
	if err := sh.err(); err != nil {
		return err
	}
	// Router lookup: one DRAM access, same charge as the engine's global
	// metadata structure.
	th.ChargeDRAM(1)
	idx := sh.ShardOf(key)
	// Admission runs on the owning shard's flow controller before a sequence
	// number is drawn, so a rejected write is fully absent.
	deadlineV := absDeadline(th, deadlineNs)
	if err := sh.shards[idx].flow.admitWrite(th, deadlineV); err != nil {
		return err
	}
	seq := sh.seq.Add(1)
	return sh.shards[idx].commitOps(th, []batchOp{{key: key, value: value, kind: kind}}, []uint64{seq}, deadlineV)
}

// Put implements kvstore.DB.
func (sh *Sharded) Put(th *hw.Thread, key, value []byte) error {
	return sh.write1(th, key, value, util.KindValue, sh.opts.Base.WriteStallDeadline)
}

// PutWithDeadline is Put bounded by deadlineNs virtual ns (see
// Engine.PutWithDeadline): admission, the slot wait, and ImmZone
// backpressure all honour the deadline and fail with ErrStalled.
func (sh *Sharded) PutWithDeadline(th *hw.Thread, key, value []byte, deadlineNs int64) error {
	return sh.write1(th, key, value, util.KindValue, deadlineNs)
}

// Delete implements kvstore.DB.
func (sh *Sharded) Delete(th *hw.Thread, key []byte) error {
	return sh.DeleteWithDeadline(th, key, sh.opts.Base.WriteStallDeadline)
}

// DeleteWithDeadline is Delete under a write deadline.
func (sh *Sharded) DeleteWithDeadline(th *hw.Thread, key []byte, deadlineNs int64) error {
	if err := sh.write1(th, key, nil, util.KindDelete, deadlineNs); err != nil {
		return err
	}
	sh.shards[sh.ShardOf(key)].stats.Deletes.Add(1)
	return nil
}

// DeleteRange deletes every key in [start, end) across the whole keyspace.
// Keys hash-partition across shards, so any key in the span may live on any
// shard: a range tombstone is committed to EVERY shard — through the
// two-phase protocol when there is more than one, so after a crash either
// all shards carry the tombstone or none does.
func (sh *Sharded) DeleteRange(th *hw.Thread, start, end []byte) error {
	return sh.DeleteRangeWithDeadline(th, start, end, sh.opts.Base.WriteStallDeadline)
}

// DeleteRangeWithDeadline is DeleteRange under a write deadline. Like
// cross-shard Apply, every participant must admit the write before its
// deadline or the whole operation fails with ErrStalled before any durable
// state changes.
func (sh *Sharded) DeleteRangeWithDeadline(th *hw.Thread, start, end []byte, deadlineNs int64) error {
	if err := sh.err(); err != nil {
		return err
	}
	if bytes.Compare(start, end) >= 0 {
		return nil
	}
	th.ChargeDRAM(1)
	deadlineV := absDeadline(th, deadlineNs)
	op := batchOp{
		key:   append([]byte(nil), start...),
		value: append([]byte(nil), end...),
		kind:  util.KindRangeDel,
	}
	n := uint64(len(sh.shards))
	firstSeq := sh.seq.Add(n) - n + 1
	if len(sh.shards) == 1 {
		if err := sh.shards[0].flow.admitWrite(th, deadlineV); err != nil {
			return err
		}
		return sh.shards[0].commitOps(th, []batchOp{op}, []uint64{firstSeq}, deadlineV)
	}
	portions := make([]*shardPortion, len(sh.shards))
	for k := range sh.shards {
		portions[k] = &shardPortion{shard: k, ops: []batchOp{op}, seqs: []uint64{firstSeq + uint64(k)}}
	}
	return sh.tpc.commit(th, portions, deadlineV)
}

// Ingest bulk-loads sorted entries, routing each to its owning shard. Each
// shard's slice installs atomically (one manifest record); the call is not
// atomic ACROSS shards — a crash between installs leaves whole per-shard
// slices present or absent, never a torn table.
func (sh *Sharded) Ingest(th *hw.Thread, entries []lsm.IngestEntry) error {
	if err := sh.err(); err != nil {
		return err
	}
	th.ChargeDRAM(1)
	// A globally ascending batch stays ascending within each shard's
	// subsequence, so per-shard validation passes whenever the input is valid.
	byShard := make([][]lsm.IngestEntry, len(sh.shards))
	for _, ent := range entries {
		k := sh.ShardOf(ent.Key)
		byShard[k] = append(byShard[k], ent)
	}
	for k, part := range byShard {
		if len(part) == 0 {
			continue
		}
		if err := sh.shards[k].Ingest(th, part); err != nil {
			return err
		}
	}
	return nil
}

// Get implements kvstore.DB: reads route directly to the owning shard on the
// caller's thread.
func (sh *Sharded) Get(th *hw.Thread, key []byte) ([]byte, error) {
	if err := sh.err(); err != nil {
		return nil, err
	}
	th.ChargeDRAM(1)
	return sh.shards[sh.ShardOf(key)].Get(th, key)
}

// Scan implements kvstore.DB: an ordered merge over every shard's sources at
// one shared-sequence snapshot.
func (sh *Sharded) Scan(th *hw.Thread, start []byte, limit int, fn func(key, value []byte) bool) (int, error) {
	if err := sh.err(); err != nil {
		return 0, err
	}
	snapshot := sh.seq.Load()
	var its []lsm.Iterator
	var tombs []lsm.RangeDel
	for _, e := range sh.shards {
		sits, err := e.internalIterators(th)
		if err != nil {
			return 0, err
		}
		its = append(its, sits...)
		tombs = append(tombs, e.visibleRangeTombs(snapshot)...)
	}
	merged := lsm.NewMergingIterator(its...)
	return kvstore.UserScanTombs(merged, start, snapshot, limit, tombs, fn), nil
}

// Apply commits an atomic multi-key batch. A batch whose keys all hash to one
// shard commits exactly like the single-engine path (one CAS on the caller's
// thread); a cross-shard batch goes through the two-phase protocol in
// twopc.go.
func (sh *Sharded) Apply(th *hw.Thread, b *Batch) error {
	return sh.ApplyWithDeadline(th, b, sh.opts.Base.WriteStallDeadline)
}

// ApplyWithDeadline is Apply under a write deadline. For a cross-shard batch
// every participant shard must admit the batch before its deadline or the
// whole batch fails with ErrStalled before any prepare record is written —
// once the two-phase commit marker lands, the apply runs to completion
// regardless of the deadline (an in-doubt prepare is never abandoned
// half-committed).
func (sh *Sharded) ApplyWithDeadline(th *hw.Thread, b *Batch, deadlineNs int64) error {
	if err := sh.err(); err != nil {
		return err
	}
	if len(b.ops) == 0 {
		return nil
	}
	th.ChargeDRAM(1)
	deadlineV := absDeadline(th, deadlineNs)
	// Partition the batch by shard, preserving op order within each shard.
	n := uint64(len(b.ops))
	firstSeq := sh.seq.Add(n) - n + 1
	byShard := make(map[int]*shardPortion)
	order := make([]int, 0, 2)
	for i, op := range b.ops {
		k := sh.ShardOf(op.key)
		p := byShard[k]
		if p == nil {
			p = &shardPortion{shard: k}
			byShard[k] = p
			order = append(order, k)
		}
		p.ops = append(p.ops, op)
		p.seqs = append(p.seqs, firstSeq+uint64(i))
	}
	if len(byShard) == 1 {
		k := order[0]
		if err := sh.shards[k].flow.admitWrite(th, deadlineV); err != nil {
			return err
		}
		return sh.shards[k].commitOps(th, byShard[k].ops, byShard[k].seqs, deadlineV)
	}
	portions := make([]*shardPortion, 0, len(byShard))
	// Deterministic shard order for the prepare/apply sequence.
	for k := range sh.shards {
		if p, ok := byShard[k]; ok {
			portions = append(portions, p)
		}
	}
	return sh.tpc.commit(th, portions, deadlineV)
}

// FlushAll implements kvstore.DB: flush every shard's pipeline.
func (sh *Sharded) FlushAll(th *hw.Thread) error {
	if err := sh.err(); err != nil {
		return err
	}
	for _, e := range sh.shards {
		if err := e.FlushAll(th); err != nil {
			return err
		}
	}
	return nil
}

// Halt crash-stops every shard (power failure semantics).
func (sh *Sharded) Halt() {
	sh.halted.Store(true)
	for _, e := range sh.shards {
		e.Halt()
	}
	if sh.tpc != nil {
		sh.tpc.abort()
	}
}

// Close implements kvstore.DB: close every shard, release the shared
// partition.
func (sh *Sharded) Close(th *hw.Thread) error {
	if sh.closed.Swap(true) {
		return nil
	}
	var first error
	for _, e := range sh.shards {
		if err := e.Close(th); err != nil && first == nil {
			first = err
		}
	}
	if sh.ownPart {
		sh.m.Cache.Release(sh.part)
	}
	return first
}

// FilterStats aggregates the shards' negative-filter counters.
func (sh *Sharded) FilterStats() (probes, negatives int64) {
	for _, e := range sh.shards {
		p, n := e.FilterStats()
		probes += p
		negatives += n
	}
	return probes, negatives
}

// BlockCacheStats aggregates the shards' block-cache counters.
func (sh *Sharded) BlockCacheStats() (hits, misses int64) {
	for _, e := range sh.shards {
		h, m := e.BlockCacheStats()
		hits += h
		misses += m
	}
	return hits, misses
}

// CrossShardBatches reports the cross-shard two-phase batches committed.
func (sh *Sharded) CrossShardBatches() int64 { return sh.crossBatches.Load() }

// RegisterObs publishes aggregate engine counters under the standard names
// (so existing dashboards keep working), per-shard labeled variants, and the
// cross-shard batch count.
func (sh *Sharded) RegisterObs(r *obs.Registry) {
	sum := func(f func(*Stats) int64) func() int64 {
		return func() int64 {
			var t int64
			for _, e := range sh.shards {
				t += f(&e.stats)
			}
			return t
		}
	}
	r.Counter("engine_puts", sum(func(s *Stats) int64 { return s.Puts.Load() }))
	r.Counter("engine_gets", sum(func(s *Stats) int64 { return s.Gets.Load() }))
	r.Counter("engine_deletes", sum(func(s *Stats) int64 { return s.Deletes.Load() }))
	r.Counter("engine_flushes", sum(func(s *Stats) int64 { return s.Flushes.Load() }))
	r.Counter("engine_spills", sum(func(s *Stats) int64 { return s.Spills.Load() }))
	r.Counter("engine_compactions", sum(func(s *Stats) int64 { return s.Compactions.Load() }))
	r.Counter("engine_read_syncs", sum(func(s *Stats) int64 { return s.ReadSyncs.Load() }))
	r.Counter("engine_range_deletes", sum(func(s *Stats) int64 { return s.RangeDeletes.Load() }))
	r.Counter("engine_ingests", sum(func(s *Stats) int64 { return s.Ingests.Load() }))
	r.Counter("compact_bytes_in", func() int64 {
		var t int64
		for _, e := range sh.shards {
			in, _ := e.tree.CompactionLevelStats()
			for _, v := range in {
				t += v
			}
		}
		return t
	})
	r.Counter("compact_bytes_out", func() int64 {
		var t int64
		for _, e := range sh.shards {
			_, out := e.tree.CompactionLevelStats()
			for _, v := range out {
				t += v
			}
		}
		return t
	})
	r.Counter("compact_jobs", func() int64 {
		var t int64
		for _, e := range sh.shards {
			t += e.tree.SchedulerStats().JobsRun
		}
		return t
	})
	r.Counter("engine_pool_slots", func() int64 {
		var t int64
		for _, e := range sh.shards {
			t += int64(e.pool.numSlots())
		}
		return t
	})
	r.Counter("engine_shards", func() int64 { return int64(len(sh.shards)) })

	flowSum := func(f func(FlowStats) int64) func() int64 {
		return func() int64 {
			var t int64
			for _, e := range sh.shards {
				t += f(e.flow.snapshot())
			}
			return t
		}
	}
	r.Gauge("flow_state", func() float64 { return float64(sh.FlowState()) })
	r.Counter("flow_slowdown_entries", flowSum(func(s FlowStats) int64 { return s.SlowdownEntries }))
	r.Counter("flow_stop_entries", flowSum(func(s FlowStats) int64 { return s.StopEntries }))
	r.Counter("flow_writes_delayed", flowSum(func(s FlowStats) int64 { return s.DelayedWrites }))
	r.Counter("flow_delay_ns", flowSum(func(s FlowStats) int64 { return s.DelayedNs }))
	r.Counter("flow_writes_rejected", flowSum(func(s FlowStats) int64 { return s.RejectedWrites }))
	r.Counter("flow_stop_waits", flowSum(func(s FlowStats) int64 { return s.StopWaits }))
	r.Counter("flow_stop_wait_ns", flowSum(func(s FlowStats) int64 { return s.StopWaitNs }))
	r.Counter("flow_dwell_ok_ns", flowSum(func(s FlowStats) int64 { return s.DwellOKNs }))
	r.Counter("flow_dwell_slowdown_ns", flowSum(func(s FlowStats) int64 { return s.DwellSlowdownNs }))
	r.Counter("flow_dwell_stop_ns", flowSum(func(s FlowStats) int64 { return s.DwellStopNs }))

	r.Counter("cross_shard_batches", sh.CrossShardBatches)

	for k := range sh.shards {
		k := k
		e := sh.shards[k]
		r.Counter(fmt.Sprintf("shard%d_engine_puts", k), func() int64 { return e.stats.Puts.Load() })
		r.Counter(fmt.Sprintf("shard%d_engine_gets", k), func() int64 { return e.stats.Gets.Load() })
		r.Counter(fmt.Sprintf("shard%d_engine_flushes", k), func() int64 { return e.stats.Flushes.Load() })
		r.Gauge(fmt.Sprintf("shard%d_flow_state", k), func() float64 { return float64(e.flow.current()) })
	}
}

// FlowState reports the most severe shard's write-admission state.
func (sh *Sharded) FlowState() FlowState {
	s := FlowOK
	for _, e := range sh.shards {
		if cur := e.flow.current(); cur > s {
			s = cur
		}
	}
	return s
}

// FlowStats aggregates the shards' flow-control counters (State is the most
// severe shard's).
func (sh *Sharded) FlowStats() FlowStats {
	var t FlowStats
	for _, e := range sh.shards {
		t = t.Add(e.flow.snapshot())
	}
	return t
}

// FlowSignals sums the shards' raw pressure signals (see Engine.FlowSignals):
// total L0 files/bytes and flush-backlog bytes across the deployment.
func (sh *Sharded) FlowSignals() (l0Files int, l0Bytes int64, backlogBytes uint64) {
	for _, e := range sh.shards {
		f, b, bk := e.FlowSignals()
		l0Files += f
		l0Bytes += b
		backlogBytes += bk
	}
	return l0Files, l0Bytes, backlogBytes
}

// DebugForceFlowState pins shard k's flow state (harness hook; see
// Engine.DebugForceFlowState).
func (sh *Sharded) DebugForceFlowState(at int64, k int, s FlowState) {
	sh.shards[k].flow.force(at, s)
}

// DebugUnforceFlowState releases every shard's force pin.
func (sh *Sharded) DebugUnforceFlowState() {
	for _, e := range sh.shards {
		e.flow.forceOff()
	}
}

var (
	_ kvstore.DB       = (*Sharded)(nil)
	_ obs.ObsRegistrar = (*Sharded)(nil)
)

// errBatchTooLarge rejects cross-shard portions that could never replay into
// a minimum-size sub-MemTable.
var errBatchTooLarge = errors.New("cachekv: cross-shard batch portion exceeds sub-MemTable capacity")
