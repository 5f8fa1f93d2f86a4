package core

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"configwall/internal/workload"
)

// TestOperandMemoComputesOnce: concurrent callers of one shape share one
// entry, and its golden is computed once and equals the reference product.
func TestOperandMemoComputesOnce(t *testing.T) {
	c := newOperandCache(1 << 20)
	d := dims{16, 32, 8}
	const callers = 8
	got := make([]*matmulOperands, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = c.get(d)
			got[i].inputs()
			got[i].goldenC()
		}()
	}
	wg.Wait()
	for _, o := range got[1:] {
		if o != got[0] {
			t.Fatal("concurrent gets of one shape returned different entries")
		}
	}
	if n := c.goldens.Load(); n != 1 {
		t.Errorf("golden computed %d times, want 1", n)
	}
	a, b := matmulInputs(d)
	if want := workload.MatmulInt8MKN(a, b, d.m, d.k, d.n); !reflect.DeepEqual(got[0].goldenC(), want) {
		t.Error("memoized golden differs from the reference product")
	}
	ia, ib := got[0].inputs()
	if !reflect.DeepEqual(ia, image(a)) || !reflect.DeepEqual(ib, image(b)) {
		t.Error("memoized input images differ from the seeded inputs")
	}
}

// TestOperandMemoLRU: the cache stays within its byte budget, evicting the
// least recently used shape, and hands out oversized shapes uncached.
func TestOperandMemoLRU(t *testing.T) {
	d1, d2, d3 := dims{8, 8, 8}, dims{16, 8, 8}, dims{8, 16, 8}
	size := func(d dims) int64 { return (&matmulOperands{dims: d}).bytes() }
	c := newOperandCache(size(d1) + size(d2) + size(d3) - 1)
	o1 := c.get(d1)
	c.get(d2)
	if c.get(d1) != o1 {
		t.Fatal("hit returned a new entry")
	}
	c.get(d3) // evicts d2, the least recently used
	if _, ok := c.entries[d2]; ok {
		t.Error("least recently used shape kept past the budget")
	}
	if _, ok := c.entries[d1]; !ok {
		t.Error("recently used shape evicted")
	}
	if want := size(d1) + size(d3); c.used != want {
		t.Errorf("used %d bytes, want %d", c.used, want)
	}
	big := dims{64, 64, 64}
	if c.get(big) == c.get(big) {
		t.Error("shape larger than the budget was cached")
	}
	if c.used != size(d1)+size(d3) {
		t.Errorf("oversized shape charged to the cache: used %d", c.used)
	}
}

// TestSkipVerifyComputesNoGolden: running a cell without verification
// builds and initializes its inputs but never computes the golden; the
// first verified run of the shape computes it once.
func TestSkipVerifyComputesNoGolden(t *testing.T) {
	g, err := LookupTarget("opengemm")
	if err != nil {
		t.Fatal(err)
	}
	w, err := LookupWorkload(WorkloadRectMM)
	if err != nil {
		t.Fatal(err)
	}
	saved := operandMemo
	operandMemo = newOperandCache(operandBudget)
	t.Cleanup(func() { operandMemo = saved })
	const n = 32
	if _, err := Run(g, w, AllOptimizations, n, RunOptions{SkipVerify: true}); err != nil {
		t.Fatal(err)
	}
	if got := operandMemo.goldens.Load(); got != 0 {
		t.Errorf("SkipVerify run computed %d goldens, want 0", got)
	}
	for _, p := range []Pipeline{Baseline, AllOptimizations} {
		res, err := Run(g, w, p, n, RunOptions{})
		if err != nil || !res.Verified {
			t.Fatalf("%s: verified=%t err=%v", p, res.Verified, err)
		}
	}
	if got := operandMemo.goldens.Load(); got != 1 {
		t.Errorf("two verified runs of one shape computed %d goldens, want 1", got)
	}
}

// TestInfeasibleBuild: a size the target's tiling cannot build is an
// ErrInfeasible error, not a failure of the run.
func TestInfeasibleBuild(t *testing.T) {
	g, err := LookupTarget("gemmini")
	if err != nil {
		t.Fatal(err)
	}
	w, err := LookupWorkload(WorkloadRectMM)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Build(g, 16); !errors.Is(err, ErrInfeasible) {
		t.Errorf("gemmini rectmm n=16: err = %v, want ErrInfeasible", err)
	}
	if _, err := w.Build(g, 32); err != nil {
		t.Errorf("gemmini rectmm n=32: %v", err)
	}
}
