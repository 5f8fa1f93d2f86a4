package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"time"

	"configwall/internal/core"
	"configwall/internal/mem"
	"configwall/internal/store"
)

// sweepSpec is one sweep workload.
type sweepSpec struct {
	grid func() []core.Experiment
	// disk gives every pass's runner a fresh DiskStore. sweep-small keeps
	// results in memory: its cells are so short that the file system,
	// whose speed varies several-fold over minutes on a shared machine,
	// would set its throughput.
	disk bool
}

var (
	sweepSmall = sweepSpec{grid: smallGrid}
	sweepLarge = sweepSpec{grid: largeGrid, disk: true}
)

// smallGrid is sweep-small's cell grid: every target x {matmul, rectmm,
// matvec} x all pipelines x the feasible sizes in {16, 32, 64}.
func smallGrid() []core.Experiment {
	return grid([]string{core.WorkloadMatmul, core.WorkloadRectMM, core.WorkloadMatvec},
		core.Pipelines, []int{16, 32, 64})
}

// largeGrid is sweep-large's cell grid: every target x {matmul, rectmm} x
// {base, all} x the feasible sizes in {256, 512}.
func largeGrid() []core.Experiment {
	return grid([]string{core.WorkloadMatmul, core.WorkloadRectMM},
		[]core.Pipeline{core.Baseline, core.AllOptimizations}, []int{256, 512})
}

// grid crosses every registered target with the given workloads and
// pipelines over the sizes each (target, workload) pair can build, so no
// cell is infeasible.
func grid(workloadNames []string, pipes []core.Pipeline, sizes []int) []core.Experiment {
	var exps []core.Experiment
	for _, tn := range core.TargetNames() {
		t, err := core.LookupTarget(tn)
		if err != nil {
			panic(err) // a name TargetNames just listed
		}
		for _, wn := range workloadNames {
			w, err := core.LookupWorkload(wn)
			if err != nil {
				panic(err) // a built-in workload
			}
			for _, n := range core.SupportedSizes(t, w, sizes) {
				for _, p := range pipes {
					exps = append(exps, core.Experiment{Target: tn, Workload: wn, Pipeline: p, N: n})
				}
			}
		}
	}
	return exps
}

// pass is one grid pass: the cells in the order they were dispatched and
// what each returned.
type pass struct {
	exps    []core.Experiment
	results []core.Result
	errs    []error
	lat     []time.Duration
	wall    time.Duration
}

// sweepPass runs every cell once, cold, on a fresh Runner. With disk set
// the runner persists to a fresh DiskStore in a new directory under root,
// the way cwbench -cache-dir and cwserve run a sweep; otherwise it keeps
// results in memory only, like cwbench without -cache-dir. Only the cells
// are timed. The directory stays until the run removes root, so no file
// system clean-up overlaps a later pass.
func sweepPass(ctx context.Context, root string, exps []core.Experiment, disk bool) (pass, core.CacheStats, error) {
	ropts := core.RunnerOptions{Workers: workers}
	if disk {
		dir, err := os.MkdirTemp(root, "pass-")
		if err != nil {
			return pass{}, core.CacheStats{}, err
		}
		if ropts.Store, err = store.Open(dir); err != nil {
			return pass{}, core.CacheStats{}, err
		}
	}
	r := core.NewRunnerWith(ropts)
	p := newPass(exps)
	t0 := time.Now()
	err := core.ParallelEach(ctx, len(exps), workers, func(i int) {
		t0 := time.Now()
		p.results[i], p.errs[i] = r.Run(ctx, exps[i], core.RunOptions{})
		p.lat[i] = time.Since(t0)
	})
	p.wall = time.Since(t0)
	return p, r.Snapshot(), err
}

func newPass(exps []core.Experiment) pass {
	return pass{
		exps:    exps,
		results: make([]core.Result, len(exps)),
		errs:    make([]error, len(exps)),
		lat:     make([]time.Duration, len(exps)),
	}
}

// cellLatencies collects the latency of every cell run in the measured
// phase, kept apart by cell.
type cellLatencies map[core.Experiment][]time.Duration

func (c cellLatencies) add(p pass) {
	for i, e := range p.exps {
		c[e] = append(c[e], p.lat[i])
	}
}

// normalized returns one sample per cell run, with the cost differences
// between cells taken out: each latency is scaled by the mean over the grid
// of the cells' median latencies, divided by its own cell's median. A grid
// mixes cells whose costs differ many times over (sweep-large is half
// n=256, half n=512), so raw quantiles would fall on the boundaries between
// cell kinds; the scaled samples' median reads a mean cell's latency and
// their tail the run-to-run variation of every cell.
func (c cellLatencies) normalized() []time.Duration {
	meds := make(map[core.Experiment]float64, len(c))
	mean := 0.0
	for e, lat := range c {
		xs := make([]float64, len(lat))
		for i, d := range lat {
			xs[i] = float64(d)
		}
		meds[e] = median(xs)
		mean += meds[e] / float64(len(c))
	}
	var out []time.Duration
	for e, lat := range c {
		for _, d := range lat {
			out = append(out, time.Duration(float64(d)*mean/meds[e]))
		}
	}
	return out
}

// checkPass counts a pass's cells as attempted, fails every cell that
// errored or was not verified against the golden model, and holds every
// cell's counters to the first result seen for that cell (ref), which the
// co-simulator's determinism guarantees.
func checkPass(o *outcome, ref map[core.Experiment]core.Result, p pass) {
	for i, e := range p.exps {
		o.attempted++
		res, err := p.results[i], p.errs[i]
		switch {
		case err != nil:
			o.failed++
			o.problem("%s: %v", e, err)
		case !res.Verified:
			o.failed++
			o.problem("%s: not verified", e)
		default:
			if want, ok := ref[e]; ok {
				if !sameRun(res, want) {
					o.problem("%s: counters %+v differ from an earlier run's %+v", e, res.Counters, want.Counters)
				}
			} else {
				ref[e] = res
			}
		}
	}
}

// sameRun reports whether two results of one cell describe the same
// simulated program run.
func sameRun(a, b core.Result) bool {
	return a.Counters == b.Counters && a.Verified == b.Verified && a.ProgramInstrs == b.ProgramInstrs
}

// shuffled returns a seeded permutation of the grid: the dispatch order of
// one pass.
func shuffled(exps []core.Experiment, rng *rand.Rand) []core.Experiment {
	out := append([]core.Experiment(nil), exps...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// runSweep is the sweep-small and sweep-large workload. Set-up discovers
// the feasible grid and warms the process with one full pass; it runs
// setupReps times and setup_s is the median. The measured phase then runs
// whole grid passes, each in a seeded order, until the run length is
// reached. With tracing on, untraced and traced passes alternate.
func runSweep(ctx context.Context, c config, s sweepSpec) (*outcome, error) {
	root, err := os.MkdirTemp("", "perfbench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	o := &outcome{}
	ref := map[core.Experiment]core.Result{}
	var cells []core.Experiment
	setups := make([]float64, setupReps)
	for i := range setups {
		t0 := time.Now()
		cells = s.grid()
		p, _, err := sweepPass(ctx, root, cells, s.disk)
		setups[i] = time.Since(t0).Seconds()
		if err != nil {
			return nil, err
		}
		checkPass(o, ref, p)
	}
	if len(cells) == 0 {
		return nil, fmt.Errorf("empty grid")
	}
	o.note("grid: %d cells", len(cells))

	rng := rand.New(rand.NewPCG(c.seed, 0x9e3779b97f4a7c15))
	budget := time.Duration(c.seconds * float64(time.Second))
	if !c.trace {
		lat := cellLatencies{}
		var rates []float64
		var wall time.Duration
		for wall < budget || len(rates) == 0 {
			p, _, err := sweepPass(ctx, root, shuffled(cells, rng), s.disk)
			if err != nil {
				return nil, err
			}
			checkPass(o, ref, p)
			wall += p.wall
			lat.add(p)
			rates = append(rates, float64(len(p.exps))/p.wall.Seconds())
		}
		o.set("setup_s", "s", median(setups))
		// The median pass is steadier than the run's mean rate, which
		// every stall of the machine drags down.
		o.set("ops_per_s", "1/s", median(rates))
		setLatency(o, lat.normalized())
		setSimulated(o, cells, ref)
		return o, nil
	}

	// Traced run: alternate an untraced Runner pass with a traced
	// composition pass over the same cells, so the two throughputs are
	// measured under the same conditions.
	start, cpu0 := time.Now(), cpuSeconds()
	arenas := make(chan *mem.Memory, workers)
	for range workers {
		arenas <- mem.New(memorySize)
	}
	var agg layerAgg
	var stats core.CacheStats
	var plainWall, tracedWall time.Duration
	plainLat := cellLatencies{}
	plainCells, tracedCells := 0, 0
	for plainWall+tracedWall < budget || tracedCells == 0 {
		p, st, err := sweepPass(ctx, root, shuffled(cells, rng), s.disk)
		if err != nil {
			return nil, err
		}
		checkPass(o, ref, p)
		plainWall += p.wall
		plainLat.add(p)
		plainCells += len(p.exps)
		addStats(&stats, st)

		tp, err := tracedPass(ctx, root, shuffled(cells, rng), s.disk, arenas, &agg)
		if err != nil {
			return nil, err
		}
		// The set-up passes gave every cell a core.Run reference, so this
		// is the traced composition's correctness gate.
		checkPass(o, ref, tp)
		tracedWall += tp.wall
		tracedCells += len(tp.exps)
	}
	wall, cpu := time.Since(start), cpuSeconds()-cpu0
	setCellLayers(o, &agg)
	setRunnerLayers(o, stats)
	setServeLayers(o, serveLayers{})
	setProcessLayers(o, plainLat.normalized(), cpu, wall)
	plain := float64(plainCells) / plainWall.Seconds()
	traced := float64(tracedCells) / tracedWall.Seconds()
	o.set("trace.overhead_frac", "frac", 1-traced/plain)
	o.note("untraced %.1f cells/s over %d cells, traced %.1f cells/s over %d cells", plain, plainCells, traced, tracedCells)
	o.note("%s", agg.sharesNote(cells))
	return o, nil
}

func addStats(sum *core.CacheStats, s core.CacheStats) {
	sum.MemHits += s.MemHits
	sum.MemMisses += s.MemMisses
	sum.StoreHits += s.StoreHits
	sum.StoreMisses += s.StoreMisses
	sum.Runs += s.Runs
}

// setSimulated reports the simulated (not host) metrics of the grid from
// its reference results: the geomean of Cycles over the cells, and the
// geomean of base/all Cycles over every (target, workload, n) the grid runs
// under both pipelines. Both are exact functions of the grid.
func setSimulated(o *outcome, cells []core.Experiment, ref map[core.Experiment]core.Result) {
	var cycles, speedups []float64
	for _, e := range cells {
		res, ok := ref[e]
		if !ok {
			continue
		}
		cycles = append(cycles, float64(res.Cycles))
		if e.Pipeline != core.Baseline {
			continue
		}
		all := e
		all.Pipeline = core.AllOptimizations
		if opt, ok := ref[all]; ok {
			speedups = append(speedups, float64(res.Cycles)/float64(opt.Cycles))
		}
	}
	o.set("sim_cycles_geomean", "cycles", geomean(cycles))
	o.set("speedup_geomean", "x", geomean(speedups))
}
