package main

// Micro-benchmark mode: -bench-json runs a fixed suite through
// testing.Benchmark and writes one JSON report; -bench-compare checks a
// fresh run of the same suite against a committed baseline (BENCH_*.json)
// and exits non-zero on regression.
//
// The regression gate deliberately checks only machine-independent
// quantities: allocs/op (deterministic modulo pool warm-up) and speed
// *ratios* between entries measured on the same host, so the machine
// cancels out. Absolute ns/op is recorded for trajectory plots but never
// gated — CI runners are too heterogeneous for a 20% wall-time bound to
// mean anything.

import (
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"runtime"
	"slices"
	"sync"
	"testing"

	"configwall/internal/analytic"
	"configwall/internal/core"
	"configwall/internal/mem"
	"configwall/internal/riscv"
	"configwall/internal/sim"
)

type benchEntry struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

type benchReport struct {
	Schema  int                   `json:"schema"`
	Note    string                `json:"note"`
	Go      string                `json:"go"`
	Entries map[string]benchEntry `json:"entries"`
	Derived map[string]float64    `json:"derived"`
}

const benchNote = "ns_per_op is machine-dependent and informational; " +
	"-bench-compare gates on allocs_per_op and the derived speed ratios only"

// suiteALULoop mirrors the internal/sim ALU micro-benchmark: a loop whose
// body is a long straight line of ALU work.
func suiteALULoop(iters int64) *riscv.Program {
	a := riscv.NewAssembler()
	a.Emit(riscv.Instr{Op: riscv.LI, Rd: 28, Imm: iters})
	a.Emit(riscv.Instr{Op: riscv.LI, Rd: 5, Imm: 0x12345})
	a.Label("top")
	for i := 0; i < 4; i++ {
		a.Emit(riscv.Instr{Op: riscv.ADDI, Rd: 6, Rs1: 5, Imm: 17})
		a.Emit(riscv.Instr{Op: riscv.SLLI, Rd: 7, Rs1: 6, Imm: 3})
		a.Emit(riscv.Instr{Op: riscv.XOR, Rd: 8, Rs1: 7, Rs2: 5})
		a.Emit(riscv.Instr{Op: riscv.MUL, Rd: 9, Rs1: 8, Rs2: 6})
		a.Emit(riscv.Instr{Op: riscv.AND, Rd: 5, Rs1: 9, Rs2: 8})
		a.Emit(riscv.Instr{Op: riscv.SRLI, Rd: 5, Rs1: 5, Imm: 1})
		a.Emit(riscv.Instr{Op: riscv.OR, Rd: 5, Rs1: 5, Rs2: 6})
	}
	a.Emit(riscv.Instr{Op: riscv.ADDI, Rd: 28, Rs1: 28, Imm: -1})
	a.Emit(riscv.Instr{Op: riscv.BNE, Rs1: 28, Rs2: 0, Label: "top"})
	a.Emit(riscv.Instr{Op: riscv.HALT})
	p, err := a.Finish()
	if err != nil {
		panic(err)
	}
	return p
}

const suiteIters = 20_000

// suiteSim measures steady-state Machine.Run throughput on one program:
// the machine is reused across iterations, the way pooled execution
// contexts reuse it across sweep cells.
func suiteSim(p *riscv.Program) func(b *testing.B) {
	return func(b *testing.B) {
		mc := sim.NewMachine(mem.New(1<<16), riscv.RocketCost(), nil)
		mc.MaxInstrs = 1 << 40
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := mc.Run(p); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// suiteCoreRun measures the full pooled experiment path (compile +
// simulate through the execution-context pool). Its entry keeps the name
// core_compiled_matmul_32 from the baselines that ran it on the retired
// block-compiled engine, so its allocs/op gate carries over.
func suiteCoreRun(b *testing.B) {
	t := core.OpenGeMMTarget()
	opts := core.RunOptions{SkipVerify: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.RunTiledMatmul(t, core.AllOptimizations, 32, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// The analytic bench shares one calibration across testing.Benchmark's
// repeated invocations — the fit is simulator-paced and must stay outside
// the timed loop, which measures Predict alone.
var (
	analyticBenchOnce  sync.Once
	analyticBenchModel *analytic.Model
	analyticBenchErr   error
)

// suiteAnalyticPredict measures the analytical tier's per-cell cost: the
// same experiment cell suiteCoreRun simulates, answered without touching
// the simulator. The derived analytic_speedup_vs_sim_matmul_32 ratio is
// the multi-fidelity headroom the screening tier trades on.
func suiteAnalyticPredict(b *testing.B) {
	analyticBenchOnce.Do(func() {
		r := core.NewRunner(0)
		analyticBenchModel, _, analyticBenchErr = analytic.Calibrate(context.Background(), r, analytic.Spec{Seed: 1})
	})
	if analyticBenchErr != nil {
		b.Fatal(analyticBenchErr)
	}
	e := core.Experiment{Target: "opengemm", Workload: core.WorkloadMatmul, Pipeline: core.AllOptimizations, N: 32}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := analyticBenchModel.Predict(e); err != nil {
			b.Fatal(err)
		}
	}
}

var benchSuite = []struct {
	name string
	fn   func(b *testing.B)
}{
	{"sim_ref_alu", suiteSim(suiteALULoop(suiteIters))},
	{"core_compiled_matmul_32", suiteCoreRun},
	{"analytic_predict_matmul_32", suiteAnalyticPredict},
}

// benchRatios are the derived speed ratios: num's ns/op over den's.
var benchRatios = []struct{ name, num, den string }{
	{"analytic_speedup_vs_sim_matmul_32", "core_compiled_matmul_32", "analytic_predict_matmul_32"},
}

func runBenchSuite() benchReport {
	rep := benchReport{
		Schema:  13,
		Note:    benchNote,
		Go:      runtime.Version(),
		Entries: map[string]benchEntry{},
		Derived: map[string]float64{},
	}
	for _, s := range benchSuite {
		fmt.Fprintf(os.Stderr, "cwbench: bench: %s\n", s.name)
		r := testing.Benchmark(s.fn)
		rep.Entries[s.name] = benchEntry{
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
	}
	for _, d := range benchRatios {
		n, den := rep.Entries[d.num], rep.Entries[d.den]
		if den.NsPerOp > 0 {
			rep.Derived[d.name] = n.NsPerOp / den.NsPerOp
		}
	}
	return rep
}

// compareBench reports every >20% regression of cur against old. allocs/op
// gets two extra allocs of absolute slack so pool warm-up inside a short
// testing.Benchmark run cannot flake a zero-alloc entry.
func compareBench(old, cur benchReport) []string {
	const tol = 1.20
	var bad []string
	for _, s := range benchSuite {
		o, ok := old.Entries[s.name]
		if !ok {
			continue // new entry, no baseline yet
		}
		c, present := cur.Entries[s.name]
		if !present {
			bad = append(bad, fmt.Sprintf("entry %s missing from the fresh run", s.name))
			continue
		}
		if float64(c.AllocsPerOp) > float64(o.AllocsPerOp)*tol+2 {
			bad = append(bad, fmt.Sprintf("%s: allocs/op regressed %d -> %d (>20%%)",
				s.name, o.AllocsPerOp, c.AllocsPerOp))
		}
	}
	for _, name := range slices.Sorted(maps.Keys(old.Derived)) {
		o := old.Derived[name]
		c, present := cur.Derived[name]
		if !present {
			bad = append(bad, fmt.Sprintf("ratio %s missing from the fresh run", name))
			continue
		}
		if c < o/tol {
			bad = append(bad, fmt.Sprintf("%s: speed ratio regressed %.2f -> %.2f (>20%%)", name, o, c))
		}
	}
	return bad
}

// runBenchMode drives -bench-json / -bench-compare: one suite run feeds
// both the written report and the baseline comparison.
func runBenchMode(jsonPath, comparePath string) {
	rep := runBenchSuite()
	if jsonPath != "" {
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fatal("-bench-json: %v", err)
		}
		if err := os.WriteFile(jsonPath, append(buf, '\n'), 0o644); err != nil {
			fatal("-bench-json: %v", err)
		}
		fmt.Fprintf(os.Stderr, "cwbench: bench: wrote %s\n", jsonPath)
	}
	if comparePath != "" {
		buf, err := os.ReadFile(comparePath)
		if err != nil {
			fatal("-bench-compare: %v", err)
		}
		var old benchReport
		if err := json.Unmarshal(buf, &old); err != nil {
			fatal("-bench-compare: %s: %v", comparePath, err)
		}
		if bad := compareBench(old, rep); len(bad) > 0 {
			for _, msg := range bad {
				fmt.Fprintf(os.Stderr, "cwbench: bench: REGRESSION: %s\n", msg)
			}
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "cwbench: bench: no regressions vs %s\n", comparePath)
	}
	for _, s := range benchSuite {
		e := rep.Entries[s.name]
		fmt.Printf("%-24s %14.0f ns/op %8d B/op %6d allocs/op\n", s.name, e.NsPerOp, e.BytesPerOp, e.AllocsPerOp)
	}
	for _, d := range benchRatios {
		if v, ok := rep.Derived[d.name]; ok {
			fmt.Printf("%-28s %6.2fx\n", d.name, v)
		}
	}
}
