package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"cachekv/internal/hw"
	"cachekv/internal/obs"
)

// spanOp names the public call a host span covers.
type spanOp uint8

const (
	opGet spanOp = iota
	opPut
	opFlush
	opCrash
)

var spanOpNames = [...]string{"get", "put", "flush", "simulate_crash"}

// span is the host time of one public call on a traced store, in ns since
// the store's epoch. timed marks calls of the timed phase.
type span struct {
	op         spanOp
	timed      bool
	start, end int64
}

func (s *store) begin() int64 {
	if !s.traced {
		return 0
	}
	return int64(time.Since(s.epoch))
}

func (s *store) end(cl *client, start int64, op spanOp) {
	if !s.traced {
		return
	}
	cl.spans = append(cl.spans, span{op: op, timed: cl.record, start: start, end: int64(time.Since(s.epoch))})
}

// writeSpans writes every span as one JSON line. A span's id is its client
// and its index in that client's sequence, shared by nothing else.
func (s *store) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, cl := range s.clients {
		for i, sp := range cl.spans {
			fmt.Fprintf(w, `{"id":"%d.%d","op":%q,"timed":%t,"start_ns":%d,"end_ns":%d}`+"\n",
				cl.id, i, spanOpNames[sp.op], sp.timed, sp.start, sp.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// colSnap is the collector's per-layer virtual ns and op count for Gets and
// Puts at one instant.
type colSnap struct {
	count [2]int64
	layer [2][hw.NumLayers]int64
}

var colOps = [2]obs.Op{obs.OpGet, obs.OpPut}

func snapCollector(c *obs.Collector) colSnap {
	var s colSnap
	for i, op := range colOps {
		s.count[i] = c.Hist(op).Count()
		for l := 0; l < hw.NumLayers; l++ {
			s.layer[i][l] = c.LayerNs(op, l)
		}
	}
	return s
}

// layerNsPerOp is the virtual ns the timed phase's ops of kind i (0 Get,
// 1 Put) spent in the named attribution layer, per op.
func layerNsPerOp(before, after colSnap, i int, layer string) float64 {
	for l := 0; l < hw.NumLayers; l++ {
		if hw.LayerName(l) == layer {
			return ratio(float64(after.layer[i][l]-before.layer[i][l]), float64(after.count[i]-before.count[i]))
		}
	}
	panic("unknown attribution layer " + layer)
}

// tracedRun is what the traced timed phase recorded besides the phase itself.
type tracedRun struct {
	p             phase
	col0, col1    colSnap
	reg0, reg1    *obs.Snapshot
	seq0, seq1    uint64 // trace sequence numbers bounding the timed phase
	cpuProfile    []byte
	events        []obs.Event // lifecycle events retained at the end of the timed phase
	report        obs.RunReport
	recovery      time.Duration // host time of SimulateCrash
	recoveryVNs   int64
	traceComplete bool
	untraced      phase
}

// runTraced measures the timed phase of a traced store: a CPU profile,
// collector and registry snapshots at its boundaries, and host spans around
// every public call (recorded by the store itself).
func runTraced(s *store) (*tracedRun, error) {
	tr := &tracedRun{}
	tr.col0 = snapCollector(s.db.Collector())
	tr.reg0 = s.db.Registry().Gather()
	tr.seq0 = s.db.Trace().Seq()
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	tr.p = s.timed()
	pprof.StopCPUProfile()
	tr.cpuProfile = buf.Bytes()
	tr.col1 = snapCollector(s.db.Collector())
	tr.reg1 = s.db.Registry().Gather()
	tr.seq1 = s.db.Trace().Seq()

	var threadVNs int64
	for _, cl := range s.clients {
		threadVNs += cl.sess.VirtualNanos()
	}
	tr.report = obs.RunReport{
		Engine:     s.db.EngineName(),
		Workload:   s.cfg.w.name,
		Ops:        tr.p.ops,
		Threads:    len(s.clients),
		ElapsedVNs: tr.p.vElapsed,
		ThreadVNs:  threadVNs,
		KopsPerSec: vKops(tr.p),
		OpStats:    s.db.Collector().OpStats(),
		Metrics:    tr.reg1,
	}
	tr.events = s.db.Trace().Events()
	tr.traceComplete = len(tr.events) == 0 || tr.events[0].Seq <= tr.seq0+1
	return tr, nil
}

// recoveryVNs is the virtual time the recovering thread spent, read from the
// lifecycle events after the last crash event: the latest recovery_end (or
// the sharded two-phase-commit log recovery that follows it).
func recoveryVNs(t *obs.Trace) int64 {
	evs := t.Events()
	var v int64
	for _, e := range evs {
		switch e.Type {
		case "crash":
			v = 0
		case "recovery_end", "twopc_recovery":
			v = max(v, e.VNs)
		}
	}
	return v
}

// busyVNs sums the virtual durations of the start/end event pairs of one
// kind of background work (flush or spill) that began in the timed phase.
func busyVNs(evs []obs.Event, seq0, seq1 uint64, startType, endType string, key func(obs.Event) string) int64 {
	open := map[string]int64{}
	var total int64
	for _, e := range evs {
		switch e.Type {
		case startType:
			if e.Seq > seq0 && e.Seq <= seq1 {
				open[key(e)] = e.VNs
			}
		case endType:
			k := key(e)
			if start, ok := open[k]; ok {
				total += e.VNs - start
				delete(open, k)
			}
		}
	}
	return total
}

func attrKey(names ...string) func(obs.Event) string {
	return func(e obs.Event) string {
		var b bytes.Buffer
		for _, n := range names {
			fmt.Fprint(&b, e.Attrs[n], "/")
		}
		return b.String()
	}
}

// perLayer computes the per-layer metrics of a traced run and the trust
// checks that say how far to trust them. Virtual metrics are per timed-phase
// op of the named kind; host metrics are CPU ns per timed-phase op.
func perLayer(s *store, tr *tracedRun) (map[string]metric, []string, error) {
	p := tr.p
	ops, gets, puts := float64(p.ops), float64(p.gets), float64(p.puts)
	putUser := puts * userBytes
	d := tr.reg1.Sub(tr.reg0)
	delta := func(name string) float64 { return float64(d.Int(name)) }
	m := map[string]metric{}
	set := func(name, unit string, v float64) { m[name] = metric{v, unit} }

	set("core.get.index_v_ns", "ns", layerNsPerOp(tr.col0, tr.col1, 0, "index"))
	set("core.get.direct_v_ns", "ns", layerNsPerOp(tr.col0, tr.col1, 0, "direct"))
	set("lsm.get.sst_v_ns", "ns", layerNsPerOp(tr.col0, tr.col1, 0, "sst"))
	set("core.put.append_v_ns", "ns", layerNsPerOp(tr.col0, tr.col1, 1, "append"))
	set("core.put.lock_v_ns", "ns", layerNsPerOp(tr.col0, tr.col1, 1, "lock"))
	set("core.put.flush_v_ns", "ns", layerNsPerOp(tr.col0, tr.col1, 1, "flush"))
	set("core.put.wal_v_ns", "ns", layerNsPerOp(tr.col0, tr.col1, 1, "wal"))

	set("memfilter.negative_ratio", "ratio", ratio(delta(obs.MFilterNegatives), delta(obs.MFilterProbes)))
	set("memfilter.probes_per_get", "1/get", ratio(delta(obs.MFilterProbes), gets))
	set("blockcache.hit_ratio", "ratio", ratio(delta(obs.MBlockCacheHits), delta(obs.MBlockCacheProbes)))
	set("blockcache.probes_per_get", "1/get", ratio(delta(obs.MBlockCacheProbes), gets))
	set("hw.cache.miss_ratio", "ratio", ratio(delta(obs.MLLCMisses), delta(obs.MLLCProbes)))
	set("hw.cache.accesses_per_op", "1/op", ratio(delta(obs.MLLCProbes), ops))
	set("hw.cache.flush_lines_per_put", "1/put", ratio(delta(obs.MLLCFlushes), puts))
	set("hw.cache.writeback_lines_per_op", "1/op", ratio(delta(obs.MLLCWritebacks), ops))
	set("hw.pmem.write_hit_ratio", "ratio", ratio(delta(obs.MPMemLineHits), delta(obs.MPMemLineArrivals)))
	set("hw.pmem.rmw_evicts_per_put", "1/put", ratio(delta(obs.MPMemRMWEvicts), puts))

	groups, grouped := delta("group_commits"), delta("group_commit_ops")
	set("core.group_commit.batch_mean", "ops", ratio(grouped, groups))
	// The wait gauge is a mean since Open with one sample per grouped op, so
	// the timed phase's mean comes from the two cumulative sums.
	waitSum := tr.reg1.Float("group_commit_wait_mean_ns")*float64(tr.reg1.Int("group_commit_ops")) -
		tr.reg0.Float("group_commit_wait_mean_ns")*float64(tr.reg0.Int("group_commit_ops"))
	set("core.group_commit.wait_mean_ns", "ns", ratio(waitSum, grouped))

	set("core.flow.writes_delayed_frac", "ratio", ratio(delta("flow_writes_delayed"), puts))
	set("core.flow.delay_ns_per_put", "ns", ratio(delta("flow_delay_ns"), puts))
	dwell := delta("flow_dwell_ok_ns") + delta("flow_dwell_slowdown_ns") + delta("flow_dwell_stop_ns")
	set("core.flow.slowdown_dwell_frac", "ratio", ratio(delta("flow_dwell_slowdown_ns"), dwell))

	flushV := busyVNs(tr.events, tr.seq0, tr.seq1, "flush_start", "flush_end", attrKey("shard", "slot"))
	spillV := busyVNs(tr.events, tr.seq0, tr.seq1, "spill_start", "spill_end", attrKey("shard"))
	set("core.bgflush_v_ns_per_put", "ns", ratio(float64(flushV), puts))
	set("core.spill_v_ns_per_put", "ns", ratio(float64(spillV), puts))
	set("lsm.compact.bytes_in_per_user_byte", "B/B", ratio(delta("compact_bytes_in"), putUser))
	set("lsm.compact.bytes_out_per_user_byte", "B/B", ratio(delta("compact_bytes_out"), putUser))
	set("core.read_syncs_per_get", "1/get", ratio(delta("engine_read_syncs"), gets))
	set("core.recovery_v_ns", "ns", float64(tr.recoveryVNs))
	set("recovery_s", "s", tr.recovery.Seconds())

	// End-to-end numbers that exist only on some workloads: the write path's
	// latency and costs (0 on the read-only workloads, which have no timed
	// Puts), and the read cost.
	set("v_put_p50_ns", "ns", p.putLat.quantile(0.5))
	set("v_put_p999_ns", "ns", p.putLat.quantile(0.999))
	set("v_get.samples", "count", gets)
	set("v_put.samples", "count", puts)
	set("media_write_bytes_per_user_byte", "B/B",
		ratio(float64(p.after.MediaWriteBytes-p.before.MediaWriteBytes), putUser))
	set("media_read_bytes_per_op", "B/op", ratio(float64(p.after.MediaReadBytes-p.before.MediaReadBytes), ops))

	// Host layers: CPU profile of the timed phase folded by module, and the
	// host spans around the public calls.
	prof, err := parseProfile(tr.cpuProfile)
	if err != nil {
		return nil, nil, err
	}
	byMod, total := foldByModule(prof)
	var sum int64
	for _, mod := range modules {
		sum += byMod[mod]
		set(mod+".host_ns_per_op", "ns", ratio(float64(byMod[mod]), ops))
	}
	var spanNs, spanN [2]float64
	for _, cl := range s.clients {
		for _, sp := range cl.spans {
			if sp.timed && sp.op <= opPut {
				spanNs[sp.op] += float64(sp.end - sp.start)
				spanN[sp.op]++
			}
		}
	}
	set("cachekv.get.host_ns", "ns", ratio(spanNs[opGet], spanN[opGet]))
	set("cachekv.put.host_ns", "ns", ratio(spanNs[opPut], spanN[opPut]))

	set("tracing.host_ns_per_op", "ns", hostNsPerOp(p))
	set("tracing.overhead_host_ns_per_op", "ns", hostNsPerOp(p)-hostNsPerOp(tr.untraced))
	set("tracing.v_kops_ratio", "ratio", ratio(vKops(p), vKops(tr.untraced)))
	set("tracing.v_get_p50_ratio", "ratio", ratio(p.getLat.quantile(0.5), tr.untraced.getLat.quantile(0.5)))

	// Trust checks.
	var bad []string
	for _, v := range tr.report.Verify() {
		bad = append(bad, "obs verify: "+v)
	}
	if g := d.Int("engine_gets"); g != p.gets {
		bad = append(bad, fmt.Sprintf("benchmark issued %d Gets, engine_gets moved by %d", p.gets, g))
	}
	if n := d.Int("engine_puts"); n != p.puts {
		bad = append(bad, fmt.Sprintf("benchmark issued %d Puts, engine_puts moved by %d", p.puts, n))
	}
	if sum != total {
		bad = append(bad, fmt.Sprintf("module host ns sum %d != profile total %d", sum, total))
	}
	if !tr.traceComplete {
		bad = append(bad, "lifecycle trace dropped events of the timed phase")
	}
	return m, bad, nil
}

// hostNsPerOp is the process CPU time per timed op.
func hostNsPerOp(p phase) float64 {
	return ratio(float64(p.cpu), float64(p.ops))
}

// vKops is measured ops over the virtual time elapsed, in Kops/s.
func vKops(p phase) float64 {
	return ratio(float64(p.ops), float64(p.vElapsed)) * 1e6
}

// tracedMeasure runs the per-layer measurement: an untraced timed phase for
// the overhead baseline, then the traced one, then crash and recovery.
func tracedMeasure(cfg *config, ks *keyset, t *tally) (*report, error) {
	base, _, err := openStore(cfg, ks, t, false)
	if err != nil {
		return nil, err
	}
	base.warmup(cfg.w.warmup)
	untraced := base.timed()
	if err := base.close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	base = nil
	runtime.GC() // free the baseline store before the traced one is built

	s, _, err := openStore(cfg, ks, t, true)
	if err != nil {
		return nil, err
	}
	s.warmup(cfg.w.warmup)
	start := startState(s.db, cfg.seed)
	tr, err := runTraced(s)
	if err != nil {
		return nil, err
	}
	tr.untraced = untraced
	if tr.recovery, err = s.crash(); err != nil {
		return nil, err
	}
	tr.recoveryVNs = recoveryVNs(s.db.Trace())
	m, bad, err := perLayer(s, tr)
	if err != nil {
		return nil, err
	}
	t.distrust(bad...)
	if cfg.spansOut != "" {
		if err := s.writeSpans(cfg.spansOut); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	}
	if err := s.close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	return &report{metrics: m, start: start, samples: map[string]int64{"get": tr.p.getLat.n, "put": tr.p.putLat.n}}, nil
}

// jsonLine renders v as one JSON line.
func jsonLine(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Sprintf(`{"error":%q}`, err.Error())
	}
	return string(b)
}
