package main

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"cachekv"
	"cachekv/internal/hw/sim"
	"cachekv/internal/obs"
)

// traceCap sizes the lifecycle event ring of traced stores so the timed
// phase's flush and spill events are all retained (a trust check verifies
// none were dropped).
const traceCap = 1 << 18

// injection breaks the benchmark's own check path on purpose, so the self-test
// can show the oracle catches what it claims to. The store is never touched.
type injection struct {
	corruptGet bool // flip a byte of the first value a timed Get returns
	dropAck    bool // before the post-crash check, claim one acknowledged write that never happened
}

type config struct {
	w        workload
	seed     uint64
	seconds  float64
	minGets  int64 // the timed phase also runs until it has issued this many Gets
	inject   injection
	spansOut string
}

// tally counts checked operations, keeps the first failures for stderr, and
// collects failed trust checks of traced runs.
type tally struct {
	attempted, failed atomic.Int64
	mu                sync.Mutex
	first             []string
	untrusted         []string
}

func (t *tally) distrust(checks ...string) {
	t.mu.Lock()
	t.untrusted = append(t.untrusted, checks...)
	t.mu.Unlock()
}

func (t *tally) fail(err error) {
	t.failed.Add(1)
	t.mu.Lock()
	if len(t.first) < 8 {
		t.first = append(t.first, err.Error())
	}
	t.mu.Unlock()
}

// client is one closed-loop client: a session plus its generator state.
type client struct {
	id      int
	sess    *cachekv.Session
	rng     *sim.RNG
	seq     int64 // accesses drawn so far
	buf     []byte
	val     []byte
	scratch []byte
	spans   []span // host spans of the public calls, traced stores only

	record         bool // collect latencies and counts (timed phase)
	gets, puts     int64
	getLat, putLat latencies
}

// store is one open store, its clients, and the oracle state of its records.
type store struct {
	cfg     *config
	ks      *keyset
	m       *model
	t       *tally
	db      *cachekv.DB
	clients []*client
	traced  bool
	epoch   time.Time // zero point of host spans

	corrupted atomic.Bool
}

// openStore opens a store and loads every record, each by its owning client,
// then flushes the load into the LSM tree when the workload asks for it. The
// returned duration is the set-up time: Open, load and flush.
func openStore(cfg *config, ks *keyset, t *tally, traced bool) (*store, time.Duration, error) {
	w := cfg.w
	s := &store{cfg: cfg, ks: ks, m: newModel(ks.n, cfg.seed), t: t, traced: traced, epoch: time.Now()}
	opts := cachekv.Options{Shards: w.shards, DisableObs: !traced}
	if traced {
		opts.TraceCap = traceCap
	}
	start := time.Now()
	db, err := cachekv.Open(opts)
	if err != nil {
		return nil, 0, fmt.Errorf("open: %w", err)
	}
	s.db = db
	for c := 0; c < w.clients; c++ {
		s.clients = append(s.clients, &client{
			id:      c,
			sess:    db.Session(c),
			rng:     sim.NewRNG(cfg.seed*0x9E3779B97F4A7C15 + uint64(c) + 1),
			val:     make([]byte, valueSize),
			scratch: make([]byte, valueSize),
		})
	}
	s.parallel(func(cl *client) {
		for item := cl.id; item < ks.n; item += w.clients {
			s.put(cl, item)
		}
	})
	if w.flush {
		sp := s.begin()
		err = db.Flush()
		s.end(s.clients[0], sp, opFlush)
		if err != nil {
			return nil, 0, fmt.Errorf("flush: %w", err)
		}
	}
	return s, time.Since(start), nil
}

// parallel runs fn once per client, each on its own goroutine, and waits.
func (s *store) parallel(fn func(cl *client)) {
	var wg sync.WaitGroup
	for _, cl := range s.clients {
		wg.Add(1)
		go func(cl *client) {
			defer wg.Done()
			fn(cl)
		}(cl)
	}
	wg.Wait()
}

// put writes the next version of item, which cl must own, and returns the
// Put's virtual latency.
func (s *store) put(cl *client, item int) int64 {
	ver := s.m.issued[item].Load() + 1
	s.m.issued[item].Store(ver)
	v0 := cl.sess.VirtualNanos()
	sp := s.begin()
	err := cl.sess.Put(s.ks.keys[item][:], s.m.value(cl.val, item, ver))
	s.end(cl, sp, opPut)
	lat := cl.sess.VirtualNanos() - v0
	s.t.attempted.Add(1)
	if err != nil {
		s.t.fail(fmt.Errorf("put item %d version %d: %w", item, ver, err))
		return lat
	}
	s.m.acked[item].Store(ver)
	return lat
}

// get reads item and checks the value against the model.
func (s *store) get(cl *client, item int) int64 {
	lo := s.m.acked[item].Load()
	v0 := cl.sess.VirtualNanos()
	sp := s.begin()
	v, err := cl.sess.Get(s.ks.keys[item][:])
	s.end(cl, sp, opGet)
	lat := cl.sess.VirtualNanos() - v0
	hi := s.m.issued[item].Load()
	s.t.attempted.Add(1)
	if err == nil && cl.record && s.cfg.inject.corruptGet && s.corrupted.CompareAndSwap(false, true) {
		v = append([]byte(nil), v...)
		v[valueSize-1] ^= 0x40
	}
	switch {
	case errors.Is(err, cachekv.ErrNotFound):
		s.t.fail(fmt.Errorf("get item %d: not found, want version %d..%d", item, lo, hi))
	case err != nil:
		s.t.fail(fmt.Errorf("get item %d: %w", item, err))
	default:
		if err := s.m.check(v, item, lo, hi, cl.scratch); err != nil {
			s.t.fail(err)
		}
	}
	return lat
}

// access numbers the client's next draw, distinct across clients.
func (cl *client) access() int64 {
	cl.seq++
	return int64(cl.id)<<40 + cl.seq
}

// op issues one operation of the workload mix on cl.
func (s *store) op(cl *client) {
	w := s.cfg.w
	var item int
	if w.readFrac >= 1 || cl.rng.Float64() < w.readFrac {
		cl.buf, item = s.ks.draw(cl.buf, cl.access(), cl.rng)
		lat := s.get(cl, item)
		if cl.record {
			cl.gets++
			cl.getLat.add(lat)
		}
		return
	}
	// Updates go to records the client owns, so each record keeps a single
	// writer; over both clients the update keys stay zipfian.
	for {
		cl.buf, item = s.ks.draw(cl.buf, cl.access(), cl.rng)
		if item%w.clients == cl.id {
			break
		}
	}
	lat := s.put(cl, item)
	if cl.record {
		cl.puts++
		cl.putLat.add(lat)
	}
}

// phase is what one timed phase measured.
type phase struct {
	ops, gets, puts int64
	getLat, putLat  latencies
	vElapsed        int64         // virtual ns from the earliest client start to the latest end
	cpu             time.Duration // process CPU time: every goroutine's, so background work and GC count
	mallocs         uint64
	before, after   cachekv.Metrics
}

// warmup runs n untimed operations per client, so caches fill and the
// clients' virtual clocks pass any background work left from the set-up.
func (s *store) warmup(n int) {
	s.parallel(func(cl *client) {
		for i := 0; i < n; i++ {
			s.op(cl)
		}
	})
}

// timed runs the closed loop for cfg.seconds of host time, and on until the
// clients together have issued cfg.minGets Gets.
func (s *store) timed() phase {
	cfg := s.cfg
	var p phase
	starts := make([]int64, len(s.clients))
	ends := make([]int64, len(s.clients))
	for i, cl := range s.clients {
		starts[i] = cl.sess.VirtualNanos()
		cl.record = true
	}
	minGets := cfg.minGets / int64(len(s.clients))
	p.before = s.db.Metrics()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	cpu := cpuTime()
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	s.parallel(func(cl *client) {
		for {
			for j := 0; j < 64; j++ {
				s.op(cl)
			}
			if cl.gets >= minGets && time.Now().After(deadline) {
				break
			}
		}
		ends[cl.id] = cl.sess.VirtualNanos()
	})
	p.cpu = cpuTime() - cpu
	runtime.ReadMemStats(&ms)
	p.mallocs = ms.Mallocs - mallocs
	p.after = s.db.Metrics()
	minStart, maxEnd := starts[0], ends[0]
	for i, cl := range s.clients {
		cl.record = false
		minStart = min(minStart, starts[i])
		maxEnd = max(maxEnd, ends[i])
		p.gets += cl.gets
		p.puts += cl.puts
		p.getLat.merge(&cl.getLat)
		p.putLat.merge(&cl.putLat)
	}
	p.ops = p.gets + p.puts
	p.vElapsed = maxEnd - minStart
	return p
}

// crash simulates a power failure and returns the host time of the crash and
// recovery. It then checks that every acknowledged write reads back from the
// recovered store (a strided sample of the records on read-only workloads,
// whose only writes are the load's).
func (s *store) crash() (time.Duration, error) {
	sp := s.begin()
	t0 := time.Now()
	ndb, err := s.db.SimulateCrash()
	rec := time.Since(t0)
	s.end(s.clients[0], sp, opCrash)
	if err != nil {
		return 0, fmt.Errorf("simulate crash: %w", err)
	}
	s.db = ndb
	if s.cfg.inject.dropAck {
		s.m.acked[0].Add(1)
	}
	stride := 1
	if !s.cfg.w.verifyAll {
		stride = max(1, s.ks.n/sampleChecks)
	}
	for _, cl := range s.clients {
		cl.sess = s.db.Session(cl.id)
	}
	s.parallel(func(cl *client) {
		for item := cl.id * stride; item < s.ks.n; item += stride * len(s.clients) {
			s.get(cl, item)
		}
	})
	return rec, nil
}

func (s *store) close() error {
	return s.db.Close()
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size (VmHWM) in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// startState is the store's state at the start of the timed phase, so a run
// that drifts can be traced to a different start.
func startState(db *cachekv.DB, seed uint64) map[string]float64 {
	snap := db.Registry().Gather()
	st := map[string]float64{"seed": float64(seed)}
	for _, m := range snap.Metrics {
		levelFiles := strings.HasPrefix(m.Name, "lsm_l") && strings.HasSuffix(m.Name, "_files")
		if m.Name == "engine_pool_slots" || m.Name == "flow_state" || levelFiles {
			st[m.Name] = metricValue(m)
		}
	}
	return st
}

func metricValue(m obs.Metric) float64 {
	if m.Kind == obs.KindCounter {
		return float64(m.Int)
	}
	return m.Float
}
