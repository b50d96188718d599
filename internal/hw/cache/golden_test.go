package cache

import (
	"hash/fnv"
	"testing"

	"cachekv/internal/hw/pmem"
	"cachekv/internal/hw/sim"
)

// goldenResult is everything the golden trace pins: the virtual schedule
// (clock, per-layer tally, profile samples), the cache and device event
// counters, and the content the trace leaves behind.
type goldenResult struct {
	ClockNs     int64
	Stats       Stats
	Device      pmem.CountersSnapshot
	Layers      [4]sim.LayerCounters
	BusySamples [4]int64
	VisibleHash uint64 // FNV-1a of the visible content of the touched range
	MediaHash   uint64 // FNV-1a of the media backing of the touched range
}

const (
	goldenSpan     = 64 << 10 // default-partition range: 4x the cache
	goldenHot      = 6 << 10
	goldenPinBase  = 1 << 20 // pinned range, twice the partition's capacity
	goldenPinSpan  = 8 << 10
	goldenProfStep = 97
)

// runGoldenTrace replays a seeded mix of aligned and unaligned reads and
// writes, clflush, clwb, NT stores, invalidations and crashes against a
// 16 KiB 4-way cache with one 4 KiB pseudo-locked partition.
func runGoldenTrace(domain Domain, seed uint64) goldenResult {
	cm := sim.DefaultCosts()
	dev := pmem.NewDevice(4<<20, cm)
	c := New(Config{SizeBytes: 16 << 10, Ways: 4, Domain: domain}, dev, cm)
	pin, err := c.Reserve(4 << 10)
	if err != nil {
		panic(err)
	}
	var tally sim.MemTally
	var prof sim.Profile
	var clk sim.Clock
	clk.SetTally(&tally)
	clk.SetProfile(&prof, goldenProfStep)

	rng := sim.NewRNG(seed)
	buf := make([]byte, 512)
	for step := 0; step < 4000; step++ {
		clk.SetLabel(int32(rng.Intn(4)))
		addr := rng.Uint64n(goldenSpan)
		if rng.Intn(2) == 0 {
			addr %= goldenHot // a hot region that stays resident
		}
		if rng.Intn(2) == 0 {
			addr &^= lineSize - 1
		}
		n := 1 + rng.Intn(300)
		if rng.Intn(3) == 0 {
			n = lineSize * (1 + rng.Intn(4))
		}
		part := DefaultPartition
		if rng.Intn(4) == 0 {
			addr = goldenPinBase + addr%(goldenPinSpan-512)
			part = pin
		}
		data := buf[:n]
		switch op := rng.Intn(100); {
		case op < 40:
			c.Read(&clk, addr, data, part)
		case op < 75:
			for i := range data {
				data[i] = byte(rng.Uint64())
			}
			c.Write(&clk, addr, data, part)
		case op < 83:
			c.Flush(&clk, addr, n)
		case op < 91:
			c.FlushOpt(&clk, addr, n)
		case op < 96:
			for i := range data {
				data[i] = byte(rng.Uint64())
			}
			c.NTWrite(&clk, addr, data)
		case op < 99:
			c.Invalidate(addr, n)
		default:
			c.Crash()
		}
	}

	res := goldenResult{ClockNs: clk.Now(), Stats: c.Stats(), Device: dev.Snapshot()}
	snap := tally.Snapshot()
	for i := range res.Layers {
		res.Layers[i] = snap[i]
		res.BusySamples[i] = prof.Busy(i)
	}
	vis, media := fnv.New64a(), fnv.New64a()
	for _, r := range [][2]uint64{{0, goldenSpan}, {goldenPinBase, goldenPinSpan}} {
		content := make([]byte, r[1])
		c.readBypass(r[0], content)
		vis.Write(content)
		dev.LoadRaw(r[0], content)
		media.Write(content)
	}
	res.VisibleHash, res.MediaHash = vis.Sum64(), media.Sum64()
	return res
}

// TestGoldenVirtualSchedule pins the cache model's observable behaviour on a
// fixed trace: which accesses hit, which lines are evicted and written back,
// every virtual nanosecond charged and the layer it is charged to, and the
// bytes left visible and durable. Host-side rework of the cache (layout,
// locking, accounting granularity) must leave every value unchanged.
func TestGoldenVirtualSchedule(t *testing.T) {
	want := map[Domain]goldenResult{
		ADR: {
			ClockNs: 1782020,
			Stats:   Stats{Hits: 1597, Misses: 5129, Evictions: 773, Writebacks: 348, Flushes: 275},
			Device:  pmem.CountersSnapshot{LineArrivals: 1259, LineHits: 930, XPLineEvicts: 140, RMWEvicts: 0, MediaReadB: 807936, MediaWriteB: 35840, CallerWriteB: 80576},
			Layers: [4]sim.LayerCounters{
				{Ns: 441743, WaitNs: 0, MediaWriteB: 8960, MediaReadB: 208128, CallerWriteB: 22720, LineArrivals: 355, LineHits: 257, XPLineEvicts: 35, RMWEvicts: 0, LLCWritebackLines: 106, LLCFlushLines: 73},
				{Ns: 452833, WaitNs: 0, MediaWriteB: 8192, MediaReadB: 212224, CallerWriteB: 19136, LineArrivals: 299, LineHits: 218, XPLineEvicts: 32, RMWEvicts: 0, LLCWritebackLines: 99, LLCFlushLines: 68},
				{Ns: 459516, WaitNs: 0, MediaWriteB: 9216, MediaReadB: 202752, CallerWriteB: 18560, LineArrivals: 290, LineHits: 212, XPLineEvicts: 36, RMWEvicts: 0, LLCWritebackLines: 102, LLCFlushLines: 54},
				{Ns: 427928, WaitNs: 0, MediaWriteB: 9472, MediaReadB: 184832, CallerWriteB: 20160, LineArrivals: 315, LineHits: 243, XPLineEvicts: 37, RMWEvicts: 0, LLCWritebackLines: 73, LLCFlushLines: 80},
			},
			BusySamples: [4]int64{4541, 4666, 4739, 4425},
			VisibleHash: 0x7c6a174d6de64b55,
			MediaHash:   0x921e164404a44a1c,
		},
		EADR: {
			ClockNs: 1782020,
			Stats:   Stats{Hits: 1597, Misses: 5129, Evictions: 773, Writebacks: 348, Flushes: 275},
			Device:  pmem.CountersSnapshot{LineArrivals: 1259, LineHits: 930, XPLineEvicts: 140, RMWEvicts: 0, MediaReadB: 807936, MediaWriteB: 35840, CallerWriteB: 80576},
			Layers: [4]sim.LayerCounters{
				{Ns: 441743, WaitNs: 0, MediaWriteB: 8960, MediaReadB: 208128, CallerWriteB: 22720, LineArrivals: 355, LineHits: 257, XPLineEvicts: 35, RMWEvicts: 0, LLCWritebackLines: 106, LLCFlushLines: 73},
				{Ns: 452833, WaitNs: 0, MediaWriteB: 8192, MediaReadB: 212224, CallerWriteB: 19136, LineArrivals: 299, LineHits: 218, XPLineEvicts: 32, RMWEvicts: 0, LLCWritebackLines: 99, LLCFlushLines: 68},
				{Ns: 459516, WaitNs: 0, MediaWriteB: 9216, MediaReadB: 202752, CallerWriteB: 18560, LineArrivals: 290, LineHits: 212, XPLineEvicts: 36, RMWEvicts: 0, LLCWritebackLines: 102, LLCFlushLines: 54},
				{Ns: 427928, WaitNs: 0, MediaWriteB: 9472, MediaReadB: 184832, CallerWriteB: 20160, LineArrivals: 315, LineHits: 243, XPLineEvicts: 37, RMWEvicts: 0, LLCWritebackLines: 73, LLCFlushLines: 80},
			},
			BusySamples: [4]int64{4541, 4666, 4739, 4425},
			VisibleHash: 0xc9460d356cfb477d,
			MediaHash:   0x70ccf71c3065b363,
		},
	}
	for _, domain := range []Domain{ADR, EADR} {
		got := runGoldenTrace(domain, 20231)
		if got != want[domain] {
			t.Errorf("%v golden trace diverged:\n got  %#v\n want %#v", domain, got, want[domain])
		}
	}
}
