package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
)

// smoke returns a small, short configuration of the named workload.
func smoke(t *testing.T, name string) *config {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	w.records, w.warmup, w.setups = 4000, 500, 2
	return &config{w: w, seed: 3, seconds: 0.2, minGets: 1000}
}

type declared struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	Workload []struct{ Name string }       `json:"workloads"`
}

func loadDeclared(t *testing.T) declared {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestSmokeEmitsDeclaredMetrics runs every workload in both modes at smoke
// size and checks each emits exactly the metrics BENCHMARK.json declares for
// that mode, with their units, and passes its oracle and trust checks.
func TestSmokeEmitsDeclaredMetrics(t *testing.T) {
	d := loadDeclared(t)
	if len(d.Workload) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark defines %d", len(d.Workload), len(workloads))
	}
	for _, dw := range d.Workload {
		for _, traced := range []bool{false, true} {
			want := d.EndToEnd
			if traced {
				want = d.PerLayer
			}
			res, err := measure(smoke(t, dw.Name), traced, io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", dw.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", dw.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json declares %d", dw.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v (present %v), want unit %s", dw.Name, traced, m.Name, got, ok, m.Unit)
				}
			}
		}
	}
}

// TestOracleCatchesInjectedFaults breaks the benchmark's check path, never the
// store, and expects the oracle to fail the run.
func TestOracleCatchesInjectedFaults(t *testing.T) {
	for _, tc := range []struct {
		workload string
		inject   injection
	}{
		{"ycsb-c-pool", injection{corruptGet: true}},
		{"ycsb-a-sharded", injection{dropAck: true}},
	} {
		cfg := smoke(t, tc.workload)
		cfg.inject = tc.inject
		res, err := measure(cfg, false, io.Discard)
		if err != nil {
			t.Fatalf("%s %+v: %v", tc.workload, tc.inject, err)
		}
		if res.Correct || res.Failed != 1 {
			t.Errorf("%s %+v: correct=%v failed=%d, want the one injected failure", tc.workload, tc.inject, res.Correct, res.Failed)
		}
	}
}

func TestLatencyQuantile(t *testing.T) {
	var l latencies
	for _, v := range []int64{10, 20, 20, 20, 30, 1 << 20} {
		l.add(v)
	}
	// Six samples: the median (target 3) falls in the value 20, whose three
	// samples (indexes 1..3) spread over [19.5, 20.5).
	if got, want := l.quantile(0.5), 19.5+(3.0-1)/3; got != want {
		t.Errorf("median = %v, want %v", got, want)
	}
	if got, want := l.quantile(0.999), float64(1<<20)-0.5+(5.994-5); got != want {
		t.Errorf("p99.9 = %v, want %v", got, want)
	}
}

func TestRepoModule(t *testing.T) {
	for fn, want := range map[string]string{
		"cachekv.(*Session).Get":                       "cachekv",
		"cachekv/internal/hw/cache.(*LLC).readLine":    "hw.cache",
		"cachekv/internal/skiplist.(*List).Find.func1": "skiplist",
		"cachekv/internal/hw.(*Thread).InPhase":        "hw",
		"cachekv/internal/arena.(*PArena).Alloc":       "other",
		"bytes.Compare":                                "",
		"main.(*store).get":                            "",
	} {
		if got := repoModule(fn); got != want {
			t.Errorf("repoModule(%q) = %q, want %q", fn, got, want)
		}
	}
}
