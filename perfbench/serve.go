package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"configwall/internal/core"
	"configwall/internal/serve"
	"configwall/internal/store"
)

// zipfS is the skew of the request mix over the universe's cells: 1.4,
// the mix serve.LoadGen and cwload send by default. Over ~150 cells the
// coldest cell is still asked for about three times per ten thousand
// requests, so every cold cell misses once early in a run and the rest of
// the run measures the hit path.
const zipfS = 1.4

// serveSetupReps is how many daemons serve-zipf's set-up boots; setup_s is
// the median. A warm boot takes milliseconds, so it takes more repeats than
// a sweep's set-up to steady the median.
const serveSetupReps = 9

// serveUniverse is every feasible cell with n <= 128 over the registered
// targets, the matmul family and all pipelines.
func serveUniverse() []core.Experiment {
	var sizes []int
	for _, n := range core.DefaultSizeGrid {
		if n <= 128 {
			sizes = append(sizes, n)
		}
	}
	return grid([]string{core.WorkloadMatmul, core.WorkloadRectMM, core.WorkloadMatvec}, core.Pipelines, sizes)
}

// daemon is one booted serving stack: a Runner over the store, a
// serve.Server warmed from it, and an http.Server on a loopback listener.
type daemon struct {
	srv    *serve.Server
	hs     *http.Server
	served chan error
	client *serve.Client
	th     *timedHandler // nil unless traced
}

// bootDaemon boots a server over st, warm from the DiskStore ds behind it,
// and waits until it answers /healthz; want is how many cells the warm
// boot must load. When st is a timedStore the warm boot's store reads
// count as its loads and the handler is wrapped in a timer.
func bootDaemon(ctx context.Context, ds *store.DiskStore, st core.Store, want int) (*daemon, error) {
	d := &daemon{served: make(chan error, 1)}
	runner := core.NewRunnerWith(core.RunnerOptions{Workers: workers, Store: st})
	srv, err := serve.New(serve.Options{Runner: runner})
	if err != nil {
		return nil, err
	}
	d.srv = srv
	var warmed int
	ts, traced := st.(*timedStore)
	if traced {
		warmed, err = warmTimed(ctx, runner, ds, ts)
	} else {
		warmed, err = srv.WarmFromStore(ctx, ds)
	}
	if err == nil && warmed != want {
		err = fmt.Errorf("loaded %d cells, want %d", warmed, want)
	}
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("warm boot: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	var h http.Handler = srv
	if traced {
		d.th = &timedHandler{h: srv}
		h = d.th
	}
	d.hs = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go func() { d.served <- d.hs.Serve(ln) }()
	d.client = serve.NewClient("http://" + ln.Addr().String())
	if err := d.client.Healthz(ctx); err != nil {
		d.stop()
		return nil, fmt.Errorf("healthz: %w", err)
	}
	return d, nil
}

// warmTimed is Server.WarmFromStore recomposed from its public calls,
// DiskStore.Each and Runner.Preload, so that the store's share of a warm
// boot can be timed: everything but the Preload callbacks, that is the
// directory index and each entry's read and decode, counts as ts's loads.
func warmTimed(ctx context.Context, r *core.Runner, ds *store.DiskStore, ts *timedStore) (int, error) {
	warmed := 0
	var preload time.Duration
	t0 := time.Now()
	err := ds.Each(func(e store.Entry) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		t := time.Now()
		if r.Preload(e.Experiment, e.Options, e.Result) {
			warmed++
		}
		preload += time.Since(t)
		ts.loads.Add(1)
		return nil
	})
	ts.loadNs.Add(int64(time.Since(t0) - preload))
	return warmed, err
}

// stop shuts the daemon down and waits for its serving goroutine to
// return.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	d.srv.BeginDrain()
	// Close the client's idle connections first: Shutdown waits up to five
	// seconds for a connection the transport dialed but never used.
	d.client.HTTPClient.CloseIdleConnections()
	err := d.hs.Shutdown(ctx)
	d.srv.Close()
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// timedHandler times the requests the serving stack handles while the
// run is in a traced slice.
type timedHandler struct {
	h         http.Handler
	slices    atomic.Pointer[slicer] // set when the measured phase starts
	ns, calls atomic.Int64
}

func (t *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if t.slices.Load().mode(time.Now()) != traced {
		t.h.ServeHTTP(w, r)
		return
	}
	t0 := time.Now()
	t.h.ServeHTTP(w, r)
	t.ns.Add(int64(time.Since(t0)))
	t.calls.Add(1)
}

// slicer splits a traced run's measured phase. Its first fifth, at most a
// second, when most cold cells miss, belongs to neither kind; after it
// untraced and traced slices of a twentieth of the run, at most 100 ms,
// alternate so both kinds see the same server state.
type slicer struct {
	start       time.Time
	warm, slice time.Duration
}

func newSlicer(start time.Time, run time.Duration) *slicer {
	return &slicer{start: start, warm: min(run/5, time.Second), slice: max(min(run/20, 100*time.Millisecond), time.Millisecond)}
}

// The kinds of request a traced run tells apart, by when it started.
const (
	untraced = iota
	traced
	warmup
)

func (s *slicer) mode(t time.Time) int {
	if s == nil {
		return untraced
	}
	el := t.Sub(s.start) - s.warm
	if el < 0 {
		return warmup
	}
	return int(el/s.slice) % 2
}

// spans returns how much of the measured phase up to end fell in untraced
// and in traced slices.
func (s *slicer) spans(end time.Time) (plain, tr time.Duration) {
	el := max(end.Sub(s.start)-s.warm, 0)
	full := el / (2 * s.slice)
	rest := el - full*2*s.slice
	return full*s.slice + min(rest, s.slice), full*s.slice + max(rest-s.slice, 0)
}

// clientStats is what one closed-loop client observed: latencies split
// by the kind of slice each request started in, and how many requests
// completed in each whole second of the measured phase.
type clientStats struct {
	lat      [3][]time.Duration
	perSec   []int
	failed   int
	problems []string
}

// runClient sends requests back to back until the deadline: each picks a
// cell from the seeded zipf mix and checks the body byte for byte against
// the canonical one.
func runClient(ctx context.Context, c *serve.Client, exps []core.Experiment, want [][]byte, order []int, seed uint64, id int, start, deadline time.Time, sl *slicer) *clientStats {
	rng := rand.New(rand.NewPCG(seed, uint64(id)+1))
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(order)-1))
	cs := &clientStats{perSec: make([]int, max(1, deadline.Sub(start)/time.Second))}
	for {
		t0 := time.Now()
		if !t0.Before(deadline) {
			return cs
		}
		k := order[zipf.Uint64()]
		body, err := c.RunRaw(ctx, exps[k], core.RunOptions{})
		d := time.Since(t0)
		mode := sl.mode(t0)
		cs.lat[mode] = append(cs.lat[mode], d)
		if sec := int(t0.Add(d).Sub(start) / time.Second); sec < len(cs.perSec) {
			cs.perSec[sec]++
		}
		if err != nil || !bytes.Equal(body, want[k]) {
			cs.failed++
			if len(cs.problems) < 5 {
				cs.problems = append(cs.problems, fmt.Sprintf("%s: err=%v, body matches canonical: %t", exps[k], err, bytes.Equal(body, want[k])))
			}
		}
	}
}

// runServe is the serve-zipf workload. The canonical response of every
// cell in the universe is computed first, by direct Runner execution; it
// is the reference every response is checked against and the source of
// the seeded half written to the store. Set-up boots a daemon over that
// store (runner, server, warm boot, listener, first /healthz); it runs
// serveSetupReps times and setup_s is the median. The last daemon serves
// the measured phase, after an untimed warm-up in which two clients ask
// for every prefilled cell once.
func runServe(ctx context.Context, c config) (*outcome, error) {
	root, err := os.MkdirTemp("", "perfbench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	exps := serveUniverse()
	canon, err := serve.CanonicalBodies(ctx, exps, core.RunOptions{})
	if err != nil {
		return nil, fmt.Errorf("canonical bodies: %w", err)
	}
	want := make([][]byte, len(exps))
	results := make([]core.Result, len(exps))
	ref := map[core.Experiment]core.Result{}
	for i, e := range exps {
		want[i] = canon[core.FingerprintKey(e, core.RunOptions{})]
		if err := json.Unmarshal(want[i], &results[i]); err != nil {
			return nil, fmt.Errorf("decoding canonical body of %s: %w", e, err)
		}
		if !results[i].Verified {
			return nil, fmt.Errorf("canonical result of %s is not verified", e)
		}
		ref[e] = results[i]
	}

	rng := rand.New(rand.NewPCG(c.seed, 0x9e3779b97f4a7c15))
	prefill := rng.Perm(len(exps))[:len(exps)/2]
	order := rng.Perm(len(exps)) // zipf rank -> universe index

	// The store a previous daemon life left behind: the prefill half of
	// the universe. Writing it is the fixture, not the daemon's set-up, so
	// it goes to the DiskStore itself, never through the timed store.
	dir, err := os.MkdirTemp(root, "store-")
	if err != nil {
		return nil, err
	}
	ds, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	for _, i := range prefill {
		if err := ds.Save(exps[i], core.RunOptions{}, results[i]); err != nil {
			return nil, err
		}
	}
	var st core.Store = ds
	var ts *timedStore
	if c.trace {
		ts = &timedStore{ds: ds}
		st = ts
	}

	var d *daemon
	defer func() {
		if d != nil {
			d.stop() // the measured phase is over; a shutdown error changes no result
		}
	}()
	setups := make([]float64, serveSetupReps)
	for i := range setups {
		if d != nil {
			err := d.stop()
			d = nil
			if err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		d, err = bootDaemon(ctx, ds, st, len(prefill))
		if err != nil {
			return nil, err
		}
		setups[i] = time.Since(t0).Seconds()
	}
	var warmFailed atomic.Int64
	if err := core.ParallelEach(ctx, len(prefill), workers, func(j int) {
		k := prefill[j]
		body, err := d.client.RunRaw(ctx, exps[k], core.RunOptions{})
		if err != nil || !bytes.Equal(body, want[k]) {
			warmFailed.Add(1)
		}
	}); err != nil {
		return nil, err
	}

	var sl *slicer
	start := time.Now()
	run := time.Duration(c.seconds * float64(time.Second))
	if c.trace {
		sl = newSlicer(start, run)
		d.th.slices.Store(sl)
	}
	deadline := start.Add(run)
	reqCtx, cancel := context.WithDeadline(ctx, deadline.Add(60*time.Second))
	defer cancel()
	cpu0 := cpuSeconds()
	stats := make([]*clientStats, workers)
	var wg sync.WaitGroup
	for i := range stats {
		wg.Add(1)
		go func() {
			defer wg.Done()
			stats[i] = runClient(reqCtx, d.client, exps, want, order, c.seed, i, start, deadline, sl)
		}()
	}
	wg.Wait()
	end := time.Now()
	cpu1 := cpuSeconds()

	o := &outcome{attempted: len(prefill), failed: int(warmFailed.Load())}
	if o.failed > 0 {
		o.problem("%d warm-up requests failed or returned a non-canonical body", o.failed)
	}
	var lat [3][]time.Duration
	perSec := make([]float64, len(stats[0].perSec))
	for _, cs := range stats {
		for i, n := range cs.perSec {
			perSec[i] += float64(n)
		}
		for m := range lat {
			lat[m] = append(lat[m], cs.lat[m]...)
			o.attempted += len(cs.lat[m])
		}
		o.failed += cs.failed
		o.problems = append(o.problems, cs.problems...)
	}
	snap := d.srv.Runner().Snapshot()
	o.note("universe %d cells, %d prefilled; %d requests, %d cells simulated (miss ratio %.3g%%)",
		len(exps), len(prefill), o.attempted, snap.Runs, 100*per(float64(snap.Runs), float64(o.attempted)))

	if !c.trace {
		o.set("setup_s", "s", median(setups))
		// The median whole second is steadier than the run's mean rate,
		// which every stall of the machine drags down.
		o.set("ops_per_s", "1/s", median(perSec))
		setLatency(o, lat[untraced])
		setSimulated(o, exps, ref)
		return o, nil
	}

	sl2, err := scrapeServeLayers(reqCtx, d.client)
	if err != nil {
		return nil, err
	}
	var traceSum time.Duration
	for _, x := range lat[traced] {
		traceSum += x
	}
	sl2.handlerUs = per(us(time.Duration(d.th.ns.Load())), float64(d.th.calls.Load()))
	sl2.handlerShare = per(float64(d.th.ns.Load()), float64(traceSum))
	var agg layerAgg
	agg.addStore(ts)
	if err := agg.addEntries(dir); err != nil {
		return nil, err
	}
	plainT, tracedT := sl.spans(end)
	plainRate := per(float64(len(lat[untraced])), plainT.Seconds())
	tracedRate := per(float64(len(lat[traced])), tracedT.Seconds())
	setCellLayers(o, &agg)
	setRunnerLayers(o, snap)
	setServeLayers(o, sl2)
	setProcessLayers(o, lat[untraced], cpu1-cpu0, end.Sub(start))
	o.set("trace.overhead_frac", "frac", 1-per(tracedRate, plainRate))
	o.note("untraced %.0f req/s over %d requests, traced %.0f req/s over %d requests; handler %.1f%% of client-observed request time",
		plainRate, len(lat[untraced]), tracedRate, len(lat[traced]), 100*sl2.handlerShare)
	return o, nil
}

// scrapeServeLayers reads the serving layer's counters and the Go runtime
// gauges from /metrics.
func scrapeServeLayers(ctx context.Context, c *serve.Client) (serveLayers, error) {
	text, err := c.Metrics(ctx)
	if err != nil {
		return serveLayers{}, fmt.Errorf("scraping /metrics: %w", err)
	}
	var s serveLayers
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		switch {
		case name == "cwserve_coalesced_total":
			s.coalesced = v
		case strings.HasPrefix(name, "cwserve_rejected_total"):
			s.rejected += v
		case name == "cwserve_go_gc_cycles_total":
			s.gcCycles = v
		case name == "cwserve_go_heap_alloc_bytes":
			s.heapMB = v / (1 << 20)
		}
	}
	return s, sc.Err()
}
