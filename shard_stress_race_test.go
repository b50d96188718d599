package cachekv

// Race stress for the sharded router: concurrent sessions issuing cross-shard
// atomic batches while scanners, single-key writers, and Flush run against the
// same store, with a simulated power failure between rounds. Run with -race;
// the strong assertion is crash atomicity — after each recovery, every
// writer's last acknowledged batch must be fully present (the default
// platform is eADR, and cross-shard batches are two-phase logged), and no
// batch may ever be half-visible.

import (
	"fmt"
	"sync"
	"testing"

	"cachekv/internal/hw/sim"
)

// batchRecord remembers one acknowledged batch for the post-crash oracle.
type batchRecord struct {
	keys  []string
	value string
}

func TestStressShardedCrossBatches(t *testing.T) {
	const cores = 4
	const shards = 4
	const rounds = 3
	const writers = 4
	const batchesPerWriter = 120

	db, err := Open(Options{Engine: EngineCacheKV, PMemMB: 1024, Cores: cores, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	if got := db.EngineName(); got != "CacheKV(shards=4)" {
		t.Fatalf("EngineName = %q, want sharded router", got)
	}
	var totalCrossBatches int64

	for round := 0; round < rounds; round++ {
		last := make([]batchRecord, writers)
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				s := db.Session(w)
				rng := sim.NewRNG(uint64(round*1000 + w + 1))
				for i := 0; i < batchesPerWriter; i++ {
					// 4 keys drawn from the writer's own space: with hashed
					// routing almost every batch spans several shards and takes
					// the two-phase path; same-shard batches exercise the
					// single-CAS fast path.
					b := &Batch{}
					val := fmt.Sprintf("w%d-r%d-i%04d", w, round, i)
					keys := make([]string, 4)
					for j := range keys {
						keys[j] = fmt.Sprintf("w%d-k%04d-%d", w, rng.Intn(300), j)
						b.Put([]byte(keys[j]), []byte(val))
					}
					if err := s.Apply(b); err != nil {
						t.Errorf("writer %d Apply: %v", w, err)
						return
					}
					last[w] = batchRecord{keys: keys, value: val}
					if i%16 == 0 {
						if err := s.Delete([]byte(fmt.Sprintf("w%d-k%04d-0", w, rng.Intn(300)))); err != nil {
							t.Errorf("writer %d Delete: %v", w, err)
							return
						}
					}
				}
			}(w)
		}
		// Scanners and point readers run beside the writers, whose commits
		// land in every shard's sub-MemTable for the writer's core.
		for rdr := 0; rdr < 2; rdr++ {
			wg.Add(1)
			go func(rdr int) {
				defer wg.Done()
				s := db.Session(writers + rdr)
				rng := sim.NewRNG(uint64(round*77 + rdr + 9))
				for i := 0; i < 300; i++ {
					if i%3 == 0 {
						prefix := fmt.Sprintf("w%d-", rng.Intn(writers))
						if _, err := s.Scan([]byte(prefix), 50, func(k, v []byte) bool { return true }); err != nil {
							t.Errorf("reader %d Scan: %v", rdr, err)
							return
						}
						continue
					}
					key := fmt.Sprintf("w%d-k%04d-%d", rng.Intn(writers), rng.Intn(300), rng.Intn(4))
					if _, err := s.Get([]byte(key)); err != nil && err != ErrNotFound {
						t.Errorf("reader %d Get: %v", rdr, err)
						return
					}
				}
			}(rdr)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				if err := db.Flush(); err != nil {
					t.Errorf("Flush: %v", err)
					return
				}
			}
		}()
		wg.Wait()
		if t.Failed() {
			return
		}

		// Counters live in the engine instance and reset across the crash;
		// sample them before recovery replaces the store.
		for _, m := range db.Registry().Gather().Metrics {
			if m.Name == "cross_shard_batches" {
				totalCrossBatches += m.Int
			}
		}
		db, err = db.SimulateCrash()
		if err != nil {
			t.Fatalf("round %d crash/recover: %v", round, err)
		}

		// Crash-atomicity oracle: each writer's last acknowledged batch was
		// committed (two-phase for cross-shard spans) before the crash, so on
		// the eADR platform every one of its keys must read back the batch's
		// value. A missing or stale key would be a half-applied group.
		s := db.Session(0)
		for w, rec := range last {
			for _, key := range rec.keys {
				v, err := s.Get([]byte(key))
				if err != nil {
					t.Fatalf("round %d: writer %d's last batch lost key %q: %v", round, w, key, err)
				}
				if string(v) != rec.value {
					t.Fatalf("round %d: writer %d's last batch torn: key %q = %q, want %q",
						round, w, key, v, rec.value)
				}
			}
		}
	}

	// The workload must actually have exercised the two-phase path.
	var engineShards int64
	for _, m := range db.Registry().Gather().Metrics {
		if m.Name == "engine_shards" {
			engineShards = m.Int
		}
	}
	if engineShards != shards {
		t.Fatalf("engine_shards metric = %d, want %d", engineShards, shards)
	}
	if totalCrossBatches == 0 {
		t.Fatal("stress run never committed a cross-shard batch")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSessionPinningSharded pins the public Session(core) contract on a
// sharded store: the session's resolved core is core % Options.Cores, and the
// session core never decides key placement — a key written on one session is
// visible from every other.
func TestSessionPinningSharded(t *testing.T) {
	const cores = 4
	db, err := Open(Options{Engine: EngineCacheKV, PMemMB: 512, Cores: cores, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for c := 0; c < 2*cores; c++ {
		if got := db.Session(c).Core(); got != c%cores {
			t.Fatalf("Session(%d).Core() = %d, want %d", c, got, c%cores)
		}
	}
	for c := 0; c < cores; c++ {
		key := fmt.Sprintf("pin-%d", c)
		if err := db.Session(c).Put([]byte(key), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	other := db.Session(2*cores + 1)
	for c := 0; c < cores; c++ {
		if v, err := other.Get([]byte(fmt.Sprintf("pin-%d", c))); err != nil || string(v) != "v" {
			t.Fatalf("key written on session %d not visible across sessions: %q, %v", c, v, err)
		}
	}
}
