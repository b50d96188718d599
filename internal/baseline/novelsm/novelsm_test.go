package novelsm

import (
	"fmt"
	"sync"
	"testing"

	"cachekv/internal/baseline"
	"cachekv/internal/hw"
	"cachekv/internal/kvstore"
)

func testMachine() *hw.Machine {
	cfg := hw.DefaultConfig()
	cfg.PMemBytes = 1 << 30
	return hw.NewMachine(cfg)
}

func smallOpts(v baseline.Variant) Options {
	o := DefaultOptions()
	o.Variant = v
	o.DRAMMemBytes = 256 << 10
	o.PMemMemBytes = 512 << 10
	o.SegmentBytes = 1 << 20
	o.FSBytes = 128 << 20
	return o
}

func openDB(t *testing.T, m *hw.Machine, opts Options) (*DB, *hw.Thread) {
	t.Helper()
	th := m.NewThread(0)
	db, err := Open(m, opts, th)
	if err != nil {
		t.Fatal(err)
	}
	return db, th
}

func TestPutGetAllVariants(t *testing.T) {
	for _, v := range []baseline.Variant{baseline.Vanilla, baseline.WithoutFlush, baseline.CacheSegments} {
		t.Run(v.Suffix()+"variant", func(t *testing.T) {
			db, th := openDB(t, testMachine(), smallOpts(v))
			defer db.Close(th)
			for i := 0; i < 2000; i++ {
				k := []byte(fmt.Sprintf("key%06d", i))
				if err := db.Put(th, k, []byte(fmt.Sprintf("v%d", i))); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 2000; i += 37 {
				k := []byte(fmt.Sprintf("key%06d", i))
				v, err := db.Get(th, k)
				if err != nil || string(v) != fmt.Sprintf("v%d", i) {
					t.Fatalf("Get(%s) = %q, %v", k, v, err)
				}
			}
			if _, err := db.Get(th, []byte("missing")); err != kvstore.ErrNotFound {
				t.Fatalf("missing key: %v", err)
			}
		})
	}
}

func TestNames(t *testing.T) {
	for v, want := range map[baseline.Variant]string{
		baseline.Vanilla:       "NoveLSM",
		baseline.WithoutFlush:  "NoveLSM-w/o-flush",
		baseline.CacheSegments: "NoveLSM-cache",
	} {
		db, th := openDB(t, testMachine(), smallOpts(v))
		if db.Name() != want {
			t.Fatalf("Name() = %s, want %s", db.Name(), want)
		}
		db.Close(th)
	}
}

func TestRotationThroughBothTiers(t *testing.T) {
	db, th := openDB(t, testMachine(), smallOpts(baseline.Vanilla))
	defer db.Close(th)
	// Write enough to fill DRAM (256K) then PMem (512K) tables repeatedly.
	n := 40000
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("key%08d", i))
		if err := db.Put(th, k, make([]byte, 48)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.FlushAll(th); err != nil {
		t.Fatal(err)
	}
	if db.tree.GetStats().TablesFlushed == 0 {
		t.Fatal("no tables ever flushed despite rotations")
	}
	for i := 0; i < n; i += 997 {
		k := []byte(fmt.Sprintf("key%08d", i))
		if _, err := db.Get(th, k); err != nil {
			t.Fatalf("lost %s: %v", k, err)
		}
	}
}

func TestDeleteAndOverwrite(t *testing.T) {
	db, th := openDB(t, testMachine(), smallOpts(baseline.Vanilla))
	defer db.Close(th)
	db.Put(th, []byte("k"), []byte("v1"))
	db.Put(th, []byte("k"), []byte("v2"))
	v, _ := db.Get(th, []byte("k"))
	if string(v) != "v2" {
		t.Fatalf("overwrite: %q", v)
	}
	db.Delete(th, []byte("k"))
	if _, err := db.Get(th, []byte("k")); err != kvstore.ErrNotFound {
		t.Fatalf("delete: %v", err)
	}
}

func TestScan(t *testing.T) {
	db, th := openDB(t, testMachine(), smallOpts(baseline.Vanilla))
	defer db.Close(th)
	for i := 0; i < 500; i++ {
		db.Put(th, []byte(fmt.Sprintf("k%04d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	var keys []string
	n, err := db.Scan(th, []byte("k0100"), 5, func(k, v []byte) bool {
		keys = append(keys, string(k))
		return true
	})
	if err != nil || n != 5 {
		t.Fatalf("scan: %d, %v", n, err)
	}
	if keys[0] != "k0100" || keys[4] != "k0104" {
		t.Fatalf("scan keys: %v", keys)
	}
}

func TestConcurrentWritersSerialize(t *testing.T) {
	m := testMachine()
	db, th := openDB(t, m, smallOpts(baseline.Vanilla))
	defer db.Close(th)
	var wg sync.WaitGroup
	const writers, perW = 4, 2000
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wth := m.NewThread(w)
			for i := 0; i < perW; i++ {
				if err := db.Put(wth, []byte(fmt.Sprintf("w%d-%05d", w, i)), []byte("v")); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	acq, waited := db.lock.Stats()
	if acq != writers*perW {
		t.Fatalf("lock acquisitions = %d", acq)
	}
	if waited == 0 {
		t.Fatal("concurrent writers never waited on the shared MemTable lock")
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < perW; i += 331 {
			if _, err := db.Get(th, []byte(fmt.Sprintf("w%d-%05d", w, i))); err != nil {
				t.Fatalf("lost w%d-%05d: %v", w, i, err)
			}
		}
	}
}

func TestCrashRecoveryPMemTable(t *testing.T) {
	m := testMachine()
	opts := smallOpts(baseline.Vanilla)
	db, th := openDB(t, m, opts)
	// Fill past the DRAM table so the active table is the PMem one, with
	// its contents only in the entry log.
	for i := 0; i < 12000; i++ {
		if err := db.Put(th, []byte(fmt.Sprintf("key%08d", i)), make([]byte, 32)); err != nil {
			t.Fatal(err)
		}
	}
	// Crash-stop the store before the platform power-fails, and join its
	// flusher before recovery: a flush already in flight when Halt runs still
	// completes (it resets and zeroes its log), and left running it would race
	// the recovery below on the host, mutating shared machine state while db2
	// replays the logs.
	db.Halt()
	m.Crash()
	_ = db.Close(th)
	m.Recover()
	th2 := m.NewThread(0)
	db2, err := Open(m, opts, th2)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close(th2)
	recovered, lost := 0, 0
	for i := 0; i < 12000; i += 101 {
		if _, err := db2.Get(th2, []byte(fmt.Sprintf("key%08d", i))); err == nil {
			recovered++
		} else {
			lost++
		}
	}
	// Everything durably logged must come back; only the unsynced DRAM-WAL
	// tail could be absent, and vanilla flushes per write, so nothing is.
	if lost > 0 {
		t.Fatalf("lost %d of %d sampled keys (recovered %d)", lost, recovered+lost, recovered)
	}
}

func TestFlushAllIdempotent(t *testing.T) {
	db, th := openDB(t, testMachine(), smallOpts(baseline.Vanilla))
	defer db.Close(th)
	db.Put(th, []byte("k"), []byte("v"))
	if err := db.FlushAll(th); err != nil {
		t.Fatal(err)
	}
	if err := db.FlushAll(th); err != nil {
		t.Fatal(err)
	}
	if v, err := db.Get(th, []byte("k")); err != nil || string(v) != "v" {
		t.Fatalf("after FlushAll: %q, %v", v, err)
	}
}
