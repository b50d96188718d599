// Command perfbench is the repository benchmark. It runs one named
// closed-loop YCSB workload through the public cachekv API, checks every
// result against a per-key model of the writes, and prints its metrics as one
// JSON object on the last line of standard output: the end-to-end metrics,
// or with --trace 1 the per-layer metrics of a separate traced run.
// README.md describes the workloads and every metric.
//
// Run it from the repository root through the wrapper that builds it:
//
//	bash perfbench/run.sh --workload ycsb-c-lsm --seed 7 --seconds 10 --trace 0
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	name := fs.String("workload", "", fmt.Sprintf("workload to run: one of %v", names))
	seed := fs.Uint64("seed", 1, "seed of the workload's keys, values and access sequence")
	seconds := fs.Float64("seconds", 10, "host seconds the timed phase runs")
	trace := fs.Int("trace", 0, "0 reports end-to-end metrics; 1 runs traced and reports per-layer metrics")
	spansOut := fs.String("spans-out", "", "with --trace 1, also write the host spans as JSON lines to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload in %v, --seconds > 0 and --trace 0 or 1\n", names)
		return 2
	}
	cfg := &config{w: w, seed: *seed, seconds: *seconds, minGets: 100_000, spansOut: *spansOut}
	res, err := measure(cfg, *trace == 1, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	fmt.Fprintln(stdout, jsonLine(res))
	if !res.Correct {
		return 1
	}
	return 0
}

// measure runs one workload and returns its result; it logs the start state,
// failures and failed trust checks to out as it goes.
func measure(cfg *config, traced bool, out io.Writer) (*result, error) {
	ks, err := newKeyset(cfg.w.records, cfg.w.zipfian, cfg.seed)
	if err != nil {
		return nil, err
	}
	t := &tally{}
	var rep *report
	if traced {
		rep, err = tracedMeasure(cfg, ks, t)
	} else {
		rep, err = endToEnd(cfg, ks, t)
	}
	if err != nil {
		return nil, err
	}
	metrics := rep.metrics
	fmt.Fprintf(out, "workload %s seed %d: %d ops checked, %d failed\n", cfg.w.name, cfg.seed, t.attempted.Load(), t.failed.Load())
	fmt.Fprintln(out, "start_state", jsonLine(rep.start))
	fmt.Fprintln(out, "latency_samples", jsonLine(rep.samples))
	for _, f := range t.first {
		fmt.Fprintln(out, "FAILED:", f)
	}
	for _, u := range t.untrusted {
		fmt.Fprintln(out, "UNTRUSTED:", u)
	}
	keys := make([]string, 0, len(metrics))
	for k := range metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(out, "  %-40s %16.4f %s\n", k, metrics[k].Value, metrics[k].Unit)
	}
	return &result{
		Correct:   t.failed.Load() == 0 && len(t.untrusted) == 0,
		Attempted: t.attempted.Load(),
		Failed:    t.failed.Load(),
		Metrics:   metrics,
	}, nil
}

// report is what one run measured besides its correctness.
type report struct {
	metrics map[string]metric
	start   map[string]float64 // store state at the start of the timed phase
	samples map[string]int64   // latency samples behind the percentiles
}

// endToEnd sets the store up w.setups times, timing each, then measures the
// last set-up's timed phase with tracing off, crashes it, and checks the
// recovered store.
func endToEnd(cfg *config, ks *keyset, t *tally) (*report, error) {
	var setups []float64 // seconds
	var s *store
	for i := 0; i < cfg.w.setups; i++ {
		if s != nil {
			if err := s.close(); err != nil {
				return nil, fmt.Errorf("close: %w", err)
			}
			s = nil
			runtime.GC() // free the closed store so set-ups do not stack in memory
		}
		var d time.Duration
		var err error
		if s, d, err = openStore(cfg, ks, t, false); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	s.warmup(cfg.w.warmup)
	start := startState(s.db, cfg.seed)
	p := s.timed()
	if _, err := s.crash(); err != nil {
		return nil, err
	}
	if err := s.close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}

	m := map[string]metric{
		"v_kops":             {vKops(p), "Kops/s"},
		"v_get_p50_ns":       {p.getLat.quantile(0.5), "ns"},
		"v_get_p999_ns":      {p.getLat.quantile(0.999), "ns"},
		"host_ns_per_op":     {hostNsPerOp(p), "ns"},
		"host_allocs_per_op": {ratio(float64(p.mallocs), float64(p.ops)), "1/op"},
		"host_peak_rss_mb":   {peakRSSMB(), "MB"},
		"setup_s":            {median(setups), "s"},
	}
	return &report{metrics: m, start: start, samples: map[string]int64{"get": p.getLat.n, "put": p.putLat.n}}, nil
}
