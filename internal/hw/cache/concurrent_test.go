package cache

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"

	"cachekv/internal/hw/sim"
)

// TestConcurrentCollidingOwners runs four writers over disjoint lines that
// all hash into the same two sets of a tiny cache, so every access contends
// for the same set locks and evicts the other writers' lines, while a fifth
// goroutine polls Stats. Each writer mixes partial writes, reads, clwb and
// pseudo-locked partition accesses and must always read back its own bytes.
// Run it under -race.
func TestConcurrentCollidingOwners(t *testing.T) {
	const (
		owners        = 4
		linesPerOwner = 8 // more than the 6 default-partition ways of the two sets
		pinnedLines   = 3 // per owner; 12 in all overcommit the 4-line partition
		ops           = 4000
	)
	c, _ := newLLC(Config{SizeBytes: 16 * lineSize, Ways: 4, Domain: EADR}) // 4 sets
	pin, err := c.Reserve(4 * lineSize)
	if err != nil {
		t.Fatal(err)
	}

	// Owner g takes lines from its own 1 MiB region that map to sets 0 or 1.
	lines := make([][]uint64, owners)
	for g := range lines {
		for a := uint64(g+1) << 20; len(lines[g]) < linesPerOwner; a += lineSize {
			if si := c.setFor(a); si <= 1 {
				lines[g] = append(lines[g], a)
			}
		}
	}

	var issued atomic.Int64 // default-partition line accesses; each op touches one line
	done := make(chan struct{})
	var poller sync.WaitGroup
	poller.Add(1)
	go func() {
		defer poller.Done()
		var last Stats
		for {
			select {
			case <-done:
				return
			default:
			}
			st := c.Stats()
			if st.Hits < last.Hits || st.Misses < last.Misses || st.Evictions < last.Evictions {
				t.Errorf("stats went backwards: %+v after %+v", st, last)
				return
			}
			last = st
		}
	}()

	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < owners; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			var clk sim.Clock
			rng := sim.NewRNG(uint64(g) + 1)
			shadow := make(map[uint64]*[lineSize]byte)
			pinned := make([]uint64, pinnedLines)
			for i := range pinned {
				pinned[i] = 8<<20 + uint64(g*pinnedLines+i)*lineSize
			}
			var buf [lineSize]byte
			for i := 0; i < ops; i++ {
				addr, part := lines[g][rng.Intn(linesPerOwner)], DefaultPartition
				if rng.Intn(4) == 0 {
					addr, part = pinned[rng.Intn(pinnedLines)], pin
				}
				sh := shadow[addr]
				if sh == nil {
					sh = new([lineSize]byte)
					shadow[addr] = sh
				}
				off := rng.Intn(lineSize)
				n := 1 + rng.Intn(lineSize-off)
				switch rng.Intn(5) {
				case 0, 1:
					for j := 0; j < n; j++ {
						buf[j] = byte(rng.Uint64())
					}
					c.Write(&clk, addr+uint64(off), buf[:n], part)
					copy(sh[off:], buf[:n])
				case 2, 3:
					c.Read(&clk, addr+uint64(off), buf[:n], part)
					if !bytes.Equal(buf[:n], sh[off:off+n]) {
						t.Errorf("owner %d: line %#x off %d read % x, want % x", g, addr, off, buf[:n], sh[off:off+n])
						return
					}
				case 4:
					c.FlushOpt(&clk, addr, lineSize)
					continue
				}
				if part == DefaultPartition {
					issued.Add(1)
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
	close(done)
	poller.Wait()

	// Pseudo-locked accesses are not counted in Stats.
	if st := c.Stats(); st.Hits+st.Misses != issued.Load() {
		t.Fatalf("hits %d + misses %d != %d line accesses", st.Hits, st.Misses, issued.Load())
	}
}
