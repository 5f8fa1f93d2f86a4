package main

// The traced run's instrumentation. Timing sits in the benchmark's own
// files, around the calls into each layer's public functions: tracedCell
// recomposes core.Run from the same calls, timedDevice wraps the
// accelerator model, and timedStore wraps the persistent store.

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"configwall/internal/accel"
	"configwall/internal/codegen"
	"configwall/internal/core"
	"configwall/internal/ir"
	"configwall/internal/mem"
	"configwall/internal/riscv"
	"configwall/internal/sim"
	"configwall/internal/store"
)

// The simulated memory layout core.Run uses: a 64 MiB arena, buffers
// placed contiguously from 1 MiB, static allocations after them, and the
// stack at 60 MiB.
const (
	memorySize = 64 << 20
	bufferBase = 1 << 20
	stackBase  = 60 << 20
)

// cellTrace is the time one traced cell spent in each layer, and the work
// each layer did.
type cellTrace struct {
	total, build, passes, verifyProbe, codegen, init, run, launch, golden time.Duration

	passCount, opsOut, instrs   int
	launches, accelOps, hostIns uint64
}

// timedDevice wraps an accelerator model and times its launches: the
// functional datapath plus the timing model.
type timedDevice struct {
	accel.Device
	busy     time.Duration
	launches uint64
}

func (d *timedDevice) Launch(m *mem.Memory) (accel.Launch, error) {
	t0 := time.Now()
	l, err := d.Device.Launch(m)
	d.busy += time.Since(t0)
	d.launches++
	return l, err
}

// timedStore wraps a DiskStore as a core.Store and times its loads and
// saves. It is safe for concurrent use.
type timedStore struct {
	ds                           *store.DiskStore
	loadNs, loads, saveNs, saves atomic.Int64
}

func (s *timedStore) Load(e core.Experiment, opts core.RunOptions) (core.Result, bool, error) {
	t0 := time.Now()
	res, ok, err := s.ds.Load(e, opts)
	s.loadNs.Add(int64(time.Since(t0)))
	s.loads.Add(1)
	return res, ok, err
}

func (s *timedStore) Save(e core.Experiment, opts core.RunOptions, res core.Result) error {
	t0 := time.Now()
	err := s.ds.Save(e, opts, res)
	s.saveNs.Add(int64(time.Since(t0)))
	s.saves.Add(1)
	return err
}

// tracedCell runs one cell the way a Runner over st computes a cold cell
// (store load, core.Run, store save; st may be nil for no store), with core.Run recomposed from its
// public calls so each layer can be timed: Workload.Build, the target's
// pass pipeline, codegen.Compile, Buffer.Init, sim.Machine.Run with the
// device wrapped in a timedDevice, and Buffer.Verify. One extra ir.Verify
// of the pipeline output is timed as a probe and left out of the cell's
// time. m is a scratch arena the caller owns for the call.
func tracedCell(st core.Store, m *mem.Memory, e core.Experiment) (core.Result, cellTrace, error) {
	var tr cellTrace
	opts := core.RunOptions{}
	res := core.Result{Target: e.Target, Workload: e.Workload, Pipeline: e.Pipeline, N: e.N}
	start := time.Now()
	if st != nil {
		if _, ok, err := st.Load(e, opts); err != nil || ok {
			return res, tr, fmt.Errorf("cold cell found in a fresh store (ok=%t, err=%v)", ok, err)
		}
	}

	t0 := time.Now()
	t, err := core.LookupTarget(e.Target)
	if err != nil {
		return res, tr, err
	}
	w, err := core.LookupWorkload(e.Workload)
	if err != nil {
		return res, tr, err
	}
	res.PeakOps = t.PeakOps
	inst, err := w.Build(t, e.N)
	tr.build = time.Since(t0)
	if err != nil {
		return res, tr, err
	}

	t0 = time.Now()
	pm := t.PassPipeline(e.Pipeline)
	err = pm.Run(inst.Module)
	tr.passes = time.Since(t0)
	if err != nil {
		return res, tr, err
	}
	res.PassStats = pm.Stats
	tr.passCount = len(pm.Passes())
	tr.opsOut = ir.CountOps(inst.Module)
	t0 = time.Now()
	err = ir.Verify(inst.Module)
	tr.verifyProbe = time.Since(t0)
	if err != nil {
		return res, tr, err
	}

	bases := make([]uint64, len(inst.Buffers))
	next := uint64(bufferBase)
	for i, buf := range inst.Buffers {
		bases[i] = next
		next += buf.Bytes
	}
	if next >= stackBase {
		return res, tr, fmt.Errorf("buffers exceed simulated memory")
	}
	t0 = time.Now()
	prog, _, err := codegen.Compile(inst.Module, "main", codegen.Options{StaticBase: next})
	tr.codegen = time.Since(t0)
	if err != nil {
		return res, tr, err
	}
	res.ProgramInstrs = len(prog.Instrs)
	tr.instrs = len(prog.Instrs)

	t0 = time.Now()
	m.Reset()
	for i, buf := range inst.Buffers {
		if buf.Init != nil {
			buf.Init(m, bases[i])
		}
	}
	m.ResetCounters()
	tr.init = time.Since(t0)

	dev := &timedDevice{Device: t.NewDevice()}
	mc := sim.NewMachine(m, t.Cost, dev)
	for i := range inst.Buffers {
		mc.Regs[riscv.A0+riscv.Reg(i)] = int64(bases[i])
	}
	mc.Regs[riscv.SP] = stackBase
	t0 = time.Now()
	err = mc.Run(prog)
	tr.run = time.Since(t0)
	tr.launch, tr.launches = dev.busy, dev.launches
	if err != nil {
		return res, tr, err
	}
	res.Counters = mc.Counters
	tr.accelOps, tr.hostIns = mc.AccelOps, mc.HostInstrs

	t0 = time.Now()
	checked := 0
	for i, buf := range inst.Buffers {
		if buf.Verify == nil {
			continue
		}
		if err := buf.Verify(m, bases[i]); err != nil {
			return res, tr, fmt.Errorf("verification failed: buffer %d: %w", i, err)
		}
		checked++
	}
	tr.golden = time.Since(t0)
	res.Verified = checked > 0

	if st != nil {
		err = st.Save(e, opts, res)
	}
	tr.total = time.Since(start) - tr.verifyProbe
	return res, tr, err
}

// layerAgg sums cell traces and store timings over the traced passes.
type layerAgg struct {
	mu    sync.Mutex
	cells int
	sum   cellTrace
	// bySize keys total traced time and device + golden time by n, for
	// the share comparison.
	bySize map[int][2]time.Duration

	loadNs, loads, saveNs, saves int64
	entries, entryBytes          int64
}

func (a *layerAgg) add(n int, t cellTrace) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.cells++
	s := &a.sum
	s.total += t.total
	s.build += t.build
	s.passes += t.passes
	s.verifyProbe += t.verifyProbe * time.Duration(t.passCount)
	s.codegen += t.codegen
	s.init += t.init
	s.run += t.run
	s.launch += t.launch
	s.golden += t.golden
	s.passCount += t.passCount
	s.opsOut += t.opsOut
	s.instrs += t.instrs
	s.launches += t.launches
	s.accelOps += t.accelOps
	s.hostIns += t.hostIns
	if a.bySize == nil {
		a.bySize = map[int][2]time.Duration{}
	}
	b := a.bySize[n]
	b[0] += t.total
	b[1] += t.launch + t.golden
	a.bySize[n] = b
}

func (a *layerAgg) addStore(s *timedStore) {
	a.loadNs += s.loadNs.Load()
	a.loads += s.loads.Load()
	a.saveNs += s.saveNs.Load()
	a.saves += s.saves.Load()
}

// addEntries counts the entry files under a store directory and their
// bytes.
func (a *layerAgg) addEntries(dir string) error {
	return filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".json") {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		a.entries++
		a.entryBytes += info.Size()
		return nil
	})
}

// tracedPass runs every cell once through tracedCell with the sweep's
// worker count, persisting to a timedStore over a fresh DiskStore when disk
// is set; each worker takes a scratch arena from arenas for the duration
// of a cell.
func tracedPass(ctx context.Context, root string, exps []core.Experiment, disk bool, arenas chan *mem.Memory, agg *layerAgg) (pass, error) {
	var st core.Store
	var ts *timedStore
	var dir string
	if disk {
		var err error
		if dir, err = os.MkdirTemp(root, "traced-"); err != nil {
			return pass{}, err
		}
		ds, err := store.Open(dir)
		if err != nil {
			return pass{}, err
		}
		ts = &timedStore{ds: ds}
		st = ts
	}
	p := newPass(exps)
	t0 := time.Now()
	err := core.ParallelEach(ctx, len(exps), workers, func(i int) {
		m := <-arenas
		var tr cellTrace
		p.results[i], tr, p.errs[i] = tracedCell(st, m, exps[i])
		arenas <- m
		if p.errs[i] == nil {
			agg.add(exps[i].N, tr)
		}
	})
	p.wall = time.Since(t0)
	if err != nil || ts == nil {
		return p, err
	}
	agg.addStore(ts)
	return p, agg.addEntries(dir)
}

// per divides, reading 0 for an empty denominator: a layer that did not
// run reports zero.
func per(x, n float64) float64 {
	if n == 0 {
		return 0
	}
	return x / n
}

// setCellLayers reports the per-layer metrics of the traced cells: mean
// time and work per cell for each layer, each timed layer's share of
// traced cell time, and the store's per-operation costs.
func setCellLayers(o *outcome, a *layerAgg) {
	n := float64(a.cells)
	s := a.sum
	total := float64(s.total)
	timed := []struct {
		name string
		d    time.Duration
	}{
		{"workload.build", s.build},
		{"passes", s.passes},
		{"codegen", s.codegen},
		{"mem.init", s.init},
		{"accel.launch", s.launch},
		{"sim.host", s.run - s.launch},
		{"golden.verify", s.golden},
		{"store.load", time.Duration(a.loadNs)},
		{"store.save", time.Duration(a.saveNs)},
	}
	for _, l := range timed {
		o.set(l.name+".share", "frac", per(float64(l.d), total))
	}
	o.set("workload.build_ms", "ms", per(ms(s.build), n))
	o.set("passes.ms", "ms", per(ms(s.passes), n))
	o.set("passes.count", "count", per(float64(s.passCount), n))
	o.set("passes.ops_out", "count", per(float64(s.opsOut), n))
	o.set("ir.verify_ms", "ms", per(ms(s.verifyProbe), float64(s.passCount)))
	o.set("ir.verify.share_est", "frac", per(float64(s.verifyProbe), total))
	o.set("codegen.ms", "ms", per(ms(s.codegen), n))
	o.set("codegen.instrs", "count", per(float64(s.instrs), n))
	o.set("mem.init_ms", "ms", per(ms(s.init), n))
	o.set("accel.launch_ms", "ms", per(ms(s.launch), n))
	o.set("accel.launches", "count", per(float64(s.launches), n))
	o.set("accel.ops", "count", per(float64(s.accelOps), n))
	o.set("golden.verify_ms", "ms", per(ms(s.golden), n))
	o.set("sim.host_ms", "ms", per(ms(s.run-s.launch), n))
	o.set("sim.host_instrs", "count", per(float64(s.hostIns), n))
	o.set("store.load_ms", "ms", per(ms(time.Duration(a.loadNs)), float64(a.loads)))
	o.set("store.loads", "count", float64(a.loads))
	o.set("store.save_ms", "ms", per(ms(time.Duration(a.saveNs)), float64(a.saves)))
	o.set("store.saves", "count", float64(a.saves))
	o.set("store.entry_bytes", "bytes", per(float64(a.entryBytes), float64(a.entries)))
	o.set("trace.cells", "count", n)
}

// sharesNote renders the traced shares per size next to the shares the
// ROADMAP's re-anchor profile reports: device + golden well above 80% of a
// cell at n >= 256, passes about 60% at n <= 64, host execution about 2%.
func (a *layerAgg) sharesNote(cells []core.Experiment) string {
	s := a.sum
	total := float64(s.total)
	var sb strings.Builder
	fmt.Fprintf(&sb, "traced shares over %d cells: passes %.1f%% (ir.Verify est. %.1f%%), device+golden %.1f%%, host %.1f%% (ROADMAP: passes ~60%% at n<=64, device+golden >80%% at n>=256, host ~2%%)",
		a.cells, 100*per(float64(s.passes), total), 100*per(float64(s.verifyProbe), total),
		100*per(float64(s.launch+s.golden), total), 100*per(float64(s.run-s.launch), total))
	seen := map[int]bool{}
	for _, e := range cells {
		if seen[e.N] {
			continue
		}
		seen[e.N] = true
		b := a.bySize[e.N]
		fmt.Fprintf(&sb, "; n=%d device+golden %.1f%%", e.N, 100*per(float64(b[1]), float64(b[0])))
	}
	return sb.String()
}

// setRunnerLayers reports the runner's memo and store counters.
func setRunnerLayers(o *outcome, s core.CacheStats) {
	o.set("runner.runs", "count", float64(s.Runs))
	o.set("runner.mem_hits", "count", float64(s.MemHits))
	o.set("runner.store_hits", "count", float64(s.StoreHits))
	o.set("runner.hit_ratio", "frac", per(float64(s.MemHits+s.StoreHits), float64(s.MemHits+s.MemMisses)))
}

// serveLayers is what the traced serve run measures of the serving layer.
type serveLayers struct {
	coalesced, rejected, gcCycles float64
	heapMB                        float64
	handlerUs, handlerShare       float64
}

func setServeLayers(o *outcome, s serveLayers) {
	o.set("serve.coalesced", "count", s.coalesced)
	o.set("serve.rejected", "count", s.rejected)
	o.set("serve.gc_cycles", "count", s.gcCycles)
	o.set("serve.heap_mb", "MB", s.heapMB)
	o.set("serve.handler_us", "us", s.handlerUs)
	o.set("serve.handler.share", "frac", s.handlerShare)
}
