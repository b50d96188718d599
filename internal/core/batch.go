package core

import (
	"fmt"

	"cachekv/internal/hw"
	"cachekv/internal/kvstore"
	"cachekv/internal/lsm"
	"cachekv/internal/util"
)

// Batch is a multi-key transaction in the sense of Section III-A's
// discussion: all of its writes are appended to the *same* sub-MemTable (the
// transaction thread is bound to one core) and committed by a single CAS on
// the packed header — so after a crash either every entry of the batch is
// visible or none is.
type Batch struct {
	ops []batchOp
}

type batchOp struct {
	key   []byte
	value []byte
	kind  util.ValueKind
}

// Put queues a write into the batch.
func (b *Batch) Put(key, value []byte) {
	b.ops = append(b.ops, batchOp{
		key:   append([]byte(nil), key...),
		value: append([]byte(nil), value...),
		kind:  util.KindValue,
	})
}

// Delete queues a tombstone into the batch.
func (b *Batch) Delete(key []byte) {
	b.ops = append(b.ops, batchOp{key: append([]byte(nil), key...), kind: util.KindDelete})
}

// DeleteRange queues a range tombstone covering [start, end) into the batch.
// Like the point ops it commits atomically with the rest of the batch.
func (b *Batch) DeleteRange(start, end []byte) {
	b.ops = append(b.ops, batchOp{
		key:   append([]byte(nil), start...),
		value: append([]byte(nil), end...),
		kind:  util.KindRangeDel,
	})
}

// Len returns the number of queued operations.
func (b *Batch) Len() int { return len(b.ops) }

// Reset clears the batch for reuse.
func (b *Batch) Reset() { b.ops = b.ops[:0] }

// Apply commits the batch atomically. All entries go to the calling core's
// sub-MemTable; the commit point is one CAS that bumps the table counter by
// the batch size and the tail past every entry. A batch larger than a
// sub-MemTable's capacity is rejected.
func (e *Engine) Apply(th *hw.Thread, b *Batch) error {
	return e.ApplyWithDeadline(th, b, e.opts.WriteStallDeadline)
}

// ApplyWithDeadline is Apply under a write deadline (see PutWithDeadline).
// Admission and the deadline are checked before any state changes, so a
// rejected batch is fully absent.
func (e *Engine) ApplyWithDeadline(th *hw.Thread, b *Batch, deadlineNs int64) error {
	if len(b.ops) == 0 {
		return nil
	}
	if err := e.err(); err != nil {
		return err
	}
	deadlineV := absDeadline(th, deadlineNs)
	if err := e.flow.admitWrite(th, deadlineV); err != nil {
		return err
	}
	// Consecutive sequence numbers for a directly applied batch.
	firstSeq := e.seq.Add(uint64(len(b.ops))) - uint64(len(b.ops)) + 1
	seqs := make([]uint64, len(b.ops))
	for i := range seqs {
		seqs[i] = firstSeq + uint64(i)
	}
	return e.commitOps(th, b.ops, seqs, deadlineV)
}

// commitOps appends ops (with pre-assigned sequence numbers seqs, one per op)
// to the calling core's sub-MemTable and commits them all with a single CAS
// on the packed header — the common commit primitive behind Apply, the
// sharded router's writes, the two-phase apply phase and its recovery
// replay. Sequence numbers are explicit because the router draws them from
// the shared counter before it picks the shard, and recovery replays the seqs
// the prepare record recorded.
//
// deadlineV bounds the slot wait (0 = none). Callers that must not fail —
// two-phase apply past its commit marker, recovery replay — pass 0; a
// deadline expiry surfaces before the commit CAS, so a stalled batch is
// fully absent.
func (e *Engine) commitOps(th *hw.Thread, ops []batchOp, seqs []uint64, deadlineV int64) error {
	if err := e.err(); err != nil {
		return err
	}
	if len(ops) == 0 {
		return nil
	}
	var enc []byte
	for i, op := range ops {
		ik := util.MakeInternalKey(nil, op.key, seqs[i], op.kind)
		entry := kvstore.EncodeEntry(nil, ik, op.value)
		enc = append(enc, entry...)
		if pad := align8(uint64(len(entry))) - uint64(len(entry)); pad > 0 {
			enc = append(enc, make([]byte, pad)...)
		}
	}
	need := uint64(len(enc))

	core := th.Core
	th.ChargeDRAM(1)
	for {
		s := e.pool.slotFor(core)
		if s == nil {
			var aerr error
			if s, aerr = e.acquireSlot(th, core, seqs[0], deadlineV); aerr != nil {
				return aerr // ErrStalled before any append: nothing committed
			}
			if s == nil {
				if err := e.err(); err != nil {
					return err
				}
				continue
			}
		}
		if need > s.dataCap() {
			return fmt.Errorf("cachekv: batch of %d bytes exceeds sub-MemTable capacity %d",
				need, s.dataCap())
		}
		hdr, ok := e.pool.lockAppend(s, core)
		if !ok {
			continue
		}
		count, _, tail := unpackHdr(hdr)
		if tail+need > s.dataCap() {
			s.appendMu.Unlock()
			if sealed := e.pool.sealForCore(th, core); sealed != nil {
				e.enqueueSealed(th, sealed)
			}
			continue
		}
		th.InPhase(hw.PhaseAppend, func() {
			e.m.Cache.Write(th.Clock, s.dataAddr()+tail, enc, e.poolPart)
		})
		// Cover every batch key in the slot's negative filter before the
		// commit CAS, mirroring write(): a failed CAS only leaves spurious
		// false-positive bits.
		if f := s.filter.Load(); f != nil {
			th.ChargeDRAM(1)
			for _, op := range ops {
				f.Add(op.key)
			}
		}
		// The transaction's commit point: counter += len(ops), tail += need,
		// in one atomic compare-and-swap.
		if !e.pool.casHdr(th, s, hdr, packHdr(count+uint64(len(ops)), stateAllocated, tail+need)) {
			s.appendMu.Unlock()
			continue // sealed under us, as in write()
		}
		for i, op := range ops {
			if op.kind == util.KindRangeDel {
				e.rangeTombs.add(lsm.RangeDel{
					Start: append([]byte(nil), op.key...),
					End:   append([]byte(nil), op.value...),
					Seq:   seqs[i],
				})
				e.stats.RangeDeletes.Add(1)
			}
		}
		if e.opts.LazyIndex {
			if (count+uint64(len(ops)))%uint64(e.opts.SyncThreshold) < uint64(len(ops)) {
				select {
				case e.syncCh <- syncReq{s: s, at: th.Clock.Now()}:
				default:
				}
			}
		} else {
			th.InPhase(hw.PhaseIndex, func() {
				s.syncMu.Lock()
				if s.list != nil {
					off := tail
					for i, op := range ops {
						ik := util.MakeInternalKey(nil, op.key, seqs[i], op.kind)
						entry := kvstore.EncodeEntry(nil, ik, op.value)
						s.list.Insert(ik, util.PutFixed64(nil, off), nil)
						off += align8(uint64(len(entry)))
					}
					s.listCount = count + uint64(len(ops))
					s.listTail = tail + need
				}
				s.syncMu.Unlock()
			})
		}
		s.appendMu.Unlock()
		e.stats.Puts.Add(int64(len(ops)))
		return nil
	}
}
