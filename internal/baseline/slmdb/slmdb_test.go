package slmdb

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
	o.MemBytes = 256 << 10
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
		t.Run("variant"+v.Suffix(), func(t *testing.T) {
			db, th := openDB(t, testMachine(), smallOpts(v))
			defer db.Close(th)
			for i := 0; i < 2000; i++ {
				if err := db.Put(th, []byte(fmt.Sprintf("key%06d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 2000; i += 53 {
				k := []byte(fmt.Sprintf("key%06d", i))
				v, err := db.Get(th, k)
				if err != nil || string(v) != fmt.Sprintf("v%d", i) {
					t.Fatalf("Get(%s) = %q, %v", k, v, err)
				}
			}
		})
	}
}

func TestSingleLevelInvariant(t *testing.T) {
	db, th := openDB(t, testMachine(), smallOpts(baseline.Vanilla))
	defer db.Close(th)
	for i := 0; i < 30000; i++ {
		if err := db.Put(th, []byte(fmt.Sprintf("key%08d", i)), make([]byte, 40)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.FlushAll(th); err != nil {
		t.Fatal(err)
	}
	if db.tree.NumFiles(0) != 0 {
		t.Fatal("SLM-DB put files in L0")
	}
	if db.tree.NumFiles(1) == 0 {
		t.Fatal("no single-level tables")
	}
	if db.tree.GetStats().Compactions != 0 {
		t.Fatal("SLM-DB ran hierarchical compactions")
	}
}

func TestBTreeDirectedReads(t *testing.T) {
	db, th := openDB(t, testMachine(), smallOpts(baseline.Vanilla))
	defer db.Close(th)
	n := 20000
	for i := 0; i < n; i++ {
		db.Put(th, []byte(fmt.Sprintf("key%08d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	if err := db.FlushAll(th); err != nil {
		t.Fatal(err)
	}
	if db.Index().Len() == 0 {
		t.Fatal("B+-tree never indexed flushed tables")
	}
	// Reads on flushed data go through the B+-tree to exactly one table.
	for i := 0; i < n; i += 509 {
		k := []byte(fmt.Sprintf("key%08d", i))
		v, err := db.Get(th, k)
		if err != nil || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("Get(%s) = %q, %v", k, v, err)
		}
	}
}

func TestOverwriteAcrossTables(t *testing.T) {
	db, th := openDB(t, testMachine(), smallOpts(baseline.Vanilla))
	defer db.Close(th)
	// First generation flushed to a table.
	for i := 0; i < 5000; i++ {
		db.Put(th, []byte(fmt.Sprintf("key%06d", i)), []byte("old"))
	}
	db.FlushAll(th)
	// Overwrites flushed into a *different* overlapping table: the B+-tree
	// must point at the newer one.
	for i := 0; i < 5000; i++ {
		db.Put(th, []byte(fmt.Sprintf("key%06d", i)), []byte("new"))
	}
	db.FlushAll(th)
	for i := 0; i < 5000; i += 307 {
		v, err := db.Get(th, []byte(fmt.Sprintf("key%06d", i)))
		if err != nil || string(v) != "new" {
			t.Fatalf("stale read: %q, %v", v, err)
		}
	}
}

func TestDelete(t *testing.T) {
	db, th := openDB(t, testMachine(), smallOpts(baseline.Vanilla))
	defer db.Close(th)
	db.Put(th, []byte("k"), []byte("v"))
	db.FlushAll(th)
	db.Delete(th, []byte("k"))
	if _, err := db.Get(th, []byte("k")); err != kvstore.ErrNotFound {
		t.Fatalf("delete over flushed data: %v", err)
	}
	db.FlushAll(th)
	if _, err := db.Get(th, []byte("k")); err != kvstore.ErrNotFound {
		t.Fatalf("tombstone lost in flush: %v", err)
	}
}

func TestScan(t *testing.T) {
	db, th := openDB(t, testMachine(), smallOpts(baseline.Vanilla))
	defer db.Close(th)
	for i := 0; i < 1000; i++ {
		db.Put(th, []byte(fmt.Sprintf("k%05d", i)), []byte("v"))
	}
	db.FlushAll(th)
	for i := 500; i < 600; i++ {
		db.Put(th, []byte(fmt.Sprintf("k%05d", i)), []byte("v2"))
	}
	count := 0
	sawNew := false
	db.Scan(th, []byte("k00490"), 30, func(k, v []byte) bool {
		count++
		if string(k) == "k00500" && string(v) == "v2" {
			sawNew = true
		}
		return true
	})
	if count != 30 {
		t.Fatalf("scanned %d", count)
	}
	if !sawNew {
		t.Fatal("scan returned stale version")
	}
}

func TestConcurrentWriters(t *testing.T) {
	m := testMachine()
	db, th := openDB(t, m, smallOpts(baseline.Vanilla))
	defer db.Close(th)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wth := m.NewThread(w)
			for i := 0; i < 2000; i++ {
				if err := db.Put(wth, []byte(fmt.Sprintf("w%d-%05d", w, i)), []byte("v")); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < 4; w++ {
		for i := 0; i < 2000; i += 331 {
			if _, err := db.Get(th, []byte(fmt.Sprintf("w%d-%05d", w, i))); err != nil {
				t.Fatalf("lost w%d-%05d: %v", w, i, err)
			}
		}
	}
}

func TestCrashRecovery(t *testing.T) {
	m := testMachine()
	opts := smallOpts(baseline.Vanilla)
	db, th := openDB(t, m, opts)
	for i := 0; i < 10000; i++ {
		if err := db.Put(th, []byte(fmt.Sprintf("key%08d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Crash-stop the store before the platform power-fails, and join its
	// background goroutines before recovery: a flush already in flight when
	// Halt runs still completes, and left running it would race the recovery
	// below on the host.
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
	for i := 0; i < 10000; i += 101 {
		k := []byte(fmt.Sprintf("key%08d", i))
		v, err := db2.Get(th2, k)
		if err != nil {
			t.Fatalf("lost %s: %v", k, err)
		}
		if string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("recovered %s = %q", k, v)
		}
	}
}

func TestNames(t *testing.T) {
	for v, want := range map[baseline.Variant]string{
		baseline.Vanilla:       "SLM-DB",
		baseline.WithoutFlush:  "SLM-DB-w/o-flush",
		baseline.CacheSegments: "SLM-DB-cache",
	} {
		db, th := openDB(t, testMachine(), smallOpts(v))
		if db.Name() != want {
			t.Fatalf("Name() = %s", db.Name())
		}
		db.Close(th)
	}
}
