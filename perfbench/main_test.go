package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"testing"
)

// spec is the part of BENCHMARK.json the self-test checks against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// ranInTrace names, per workload, the per-layer metrics of layers that run
// there; a traced run must report each of them above zero.
var ranInTrace = map[string][]string{
	"sweep-small": {"trace.cells", "workload.build_ms", "passes.ms", "ir.verify_ms", "codegen.ms",
		"mem.init_ms", "accel.launch_ms", "golden.verify_ms", "sim.host_ms", "runner.runs", "latency.p99_us"},
	"sweep-large": {"trace.cells", "passes.ms", "accel.launch_ms", "golden.verify_ms", "sim.host_ms",
		"store.save_ms", "store.saves", "store.loads", "store.entry_bytes", "runner.runs", "latency.p99_us"},
	"serve-zipf": {"serve.handler_us", "serve.handler.share", "store.load_ms", "store.loads", "store.saves",
		"runner.mem_hits", "latency.p99_us"},
}

// TestSmoke runs every workload briefly, untraced and traced, and checks
// that each run is correct, fails nothing, reports exactly the metrics
// BENCHMARK.json names, with their units, and, when traced, measured every
// layer that runs on the workload.
func TestSmoke(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) == 0 {
		t.Fatal("BENCHMARK.json lists no workloads")
	}
	t.Setenv("TMPDIR", t.TempDir())
	for _, w := range s.Workloads {
		for _, traced := range []bool{false, true} {
			want := map[string]string{}
			if traced {
				for _, m := range s.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range s.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			t.Run(w.Name+map[bool]string{false: "/untraced", true: "/traced"}[traced], func(t *testing.T) {
				if testing.Short() && w.Name == "sweep-large" {
					t.Skip("sweep-large takes tens of seconds")
				}
				// Half a second leaves a traced serve run most of its
				// length after the warm-up for alternating slices.
				rep, err := run(context.Background(), config{workload: w.Name, seed: 1, seconds: 0.5, trace: traced}, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
					t.Errorf("correct=%t attempted=%d failed=%d, want a correct run with no failures", rep.Correct, rep.Attempted, rep.Failed)
				}
				for name, unit := range want {
					m, ok := rep.Metrics[name]
					if !ok {
						t.Errorf("metric %s missing", name)
					} else if m.Unit != unit {
						t.Errorf("metric %s has unit %q, want %q", name, m.Unit, unit)
					}
				}
				for name := range rep.Metrics {
					if _, ok := want[name]; !ok {
						t.Errorf("metric %s is not in BENCHMARK.json", name)
					}
				}
				if !traced {
					return
				}
				if len(ranInTrace[w.Name]) == 0 {
					t.Fatalf("no traced layers listed for workload %s", w.Name)
				}
				for _, name := range ranInTrace[w.Name] {
					if v := rep.Metrics[name].Value; !(v > 0) {
						t.Errorf("metric %s = %v, want > 0: the layer runs on %s", name, v, w.Name)
					}
				}
			})
		}
	}
}

// TestSimulatedMetricsDeterministic checks that two runs at one seed give
// bit-identical simulated metrics.
func TestSimulatedMetricsDeterministic(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	for _, w := range []string{"sweep-small", "serve-zipf"} {
		var first report
		for i := range 2 {
			rep, err := run(context.Background(), config{workload: w, seed: 7, seconds: 0.05}, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				first = rep
				continue
			}
			for _, name := range []string{"sim_cycles_geomean", "speedup_geomean"} {
				if a, b := first.Metrics[name].Value, rep.Metrics[name].Value; a != b {
					t.Errorf("%s %s: %v then %v at the same seed", w, name, a, b)
				}
			}
		}
	}
}
