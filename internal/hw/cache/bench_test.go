package cache

import (
	"testing"

	"cachekv/internal/hw/pmem"
	"cachekv/internal/hw/sim"
)

// newBenchLLC returns the paper's 36 MB 12-way LLC over a device of the
// given capacity.
func newBenchLLC(devBytes uint64) *LLC {
	cm := sim.DefaultCosts()
	return New(DefaultConfig(), pmem.NewDevice(devBytes, cm), cm)
}

// reportVirtual reports the virtual ns the clock was charged per op.
func reportVirtual(b *testing.B, clk *sim.Clock, start int64) {
	b.ReportMetric(float64(clk.Now()-start)/float64(b.N), "vns/op")
}

func BenchmarkCacheWrite64(b *testing.B) {
	c := newBenchLLC(256 << 20)
	var clk sim.Clock
	buf := make([]byte, 64)
	b.SetBytes(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Write(&clk, uint64(i%1000000)*64, buf, DefaultPartition)
	}
	reportVirtual(b, &clk, 0)
}

// BenchmarkReadResidentLine reads one line that stays cached: the hit path
// of a single line access.
func BenchmarkReadResidentLine(b *testing.B) {
	c := newBenchLLC(16 << 20)
	var clk sim.Clock
	buf := make([]byte, lineSize)
	c.Read(&clk, 4096, buf, DefaultPartition)
	start := clk.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Read(&clk, 4096, buf, DefaultPartition)
	}
	reportVirtual(b, &clk, start)
}

// BenchmarkReadRandomBlock4K reads random 4 KiB blocks over a 64 MiB
// footprint, larger than the 36 MB cache: the SSTable block reads of a
// uniform Get workload whose data does not fit, so about half the lines miss
// and evict.
func BenchmarkReadRandomBlock4K(b *testing.B) {
	const footprint = 64 << 20
	c := newBenchLLC(footprint)
	var clk sim.Clock
	rng := sim.NewRNG(1)
	buf := make([]byte, 4096)
	// Warm up so the cache is full and the timed reads evict.
	for i := 0; i < 2*DefaultConfig().SizeBytes/len(buf); i++ {
		c.Read(&clk, rng.Uint64n(footprint/4096)*4096, buf, DefaultPartition)
	}
	start := clk.Now()
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Read(&clk, rng.Uint64n(footprint/4096)*4096, buf, DefaultPartition)
	}
	reportVirtual(b, &clk, start)
}

// BenchmarkReadPinned reads 256 B records from a resident pseudo-locked
// partition, the sub-MemTable pool's access path.
func BenchmarkReadPinned(b *testing.B) {
	const region = 4 << 20
	c := newBenchLLC(16 << 20)
	part, err := c.Reserve(region)
	if err != nil {
		b.Fatal(err)
	}
	var clk sim.Clock
	buf := make([]byte, 256)
	for off := uint64(0); off < region; off += uint64(len(buf)) {
		c.Write(&clk, off, buf, part)
	}
	rng := sim.NewRNG(1)
	start := clk.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Read(&clk, rng.Uint64n(region/256)*256, buf, part)
	}
	reportVirtual(b, &clk, start)
}

func BenchmarkNTWrite4K(b *testing.B) {
	c := newBenchLLC(256 << 20)
	var clk sim.Clock
	buf := make([]byte, 4096)
	b.SetBytes(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.NTWrite(&clk, uint64(i%10000)*4096, buf)
	}
	reportVirtual(b, &clk, 0)
}
