package faultinject

import "cachekv/internal/hw/sim"

// SlowDevice is the sustained-overload fault mode: a degraded PMem device
// (worn media, thermal throttling) plus an overloaded flush path. Applied to
// a cost model it slows every media-facing operation by PMemLatencyMult and
// adds FlushPauseNs to each background flush job, so the flush/compaction
// pipeline falls behind foreground writes and the engine's flow control (or
// its absence) decides what happens to the tail.
type SlowDevice struct {
	// PMemLatencyMult scales every PMem media and persistence-instruction
	// cost (reads, XPBuffer traffic, evictions, clflush/ntstore). 1 or less
	// leaves the device untouched.
	PMemLatencyMult int
	// FlushPauseNs is added to the fixed dispatch cost of every background
	// flush job, modelling a flush thread that keeps losing its CPU (cgroup
	// throttling, noisy neighbor). 0 adds nothing.
	FlushPauseNs int64
}

// Apply returns a scaled copy of base; base itself is never mutated, so one
// calibrated model can seed both the healthy and the degraded machine of a
// comparison run.
func (s SlowDevice) Apply(base *sim.CostModel) *sim.CostModel {
	c := *base
	if m := int64(s.PMemLatencyMult); m > 1 {
		c.PMemReadSeq *= m
		c.PMemReadRand *= m
		c.XPBufferHit *= m
		c.XPBufferMiss *= m
		c.RMWPenalty *= m
		c.CLFlush *= m
		c.NTStore *= m
		c.FlushBytePerKB *= m
	}
	if s.FlushPauseNs > 0 {
		c.FlushFixed += s.FlushPauseNs
	}
	return &c
}
