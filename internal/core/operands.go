package core

// The matmul operand memo. A matmul-family instance's inputs and golden
// product are a pure function of its (M, K, N): A and B come from fixed
// seeds and C from the naive reference product. A sweep builds the same
// (M, K, N) once per target x pipeline, and cwserve, cwtune and cwbench
// keep reusing (workload, n) within one process, so the memo computes
// each triple once and shares it. Every cell still compares every output
// element against the golden; only its computation is shared.

import (
	"container/list"
	"sync"
	"sync/atomic"

	"configwall/internal/workload"
)

// operandBudget bounds the bytes the process-wide memo keeps: the input
// images plus the int32 golden of every cached (M, K, N). Square n = 1024
// takes 6 MiB, so the budget holds every size the figures sweep.
const operandBudget = 64 << 20

// operandMemo is the process-wide memo matmulInstance draws from.
var operandMemo = newOperandCache(operandBudget)

// dims is a matmul shape C[M,N] = A[M,K] x B[K,N].
type dims struct{ m, k, n int }

// matmulOperands is one memoized (M, K, N): the memory images of A and B,
// filled once on first use, and the golden C, computed once on first
// Verify so callers that skip verification never pay for it.
type matmulOperands struct {
	dims
	cache *operandCache

	inputsOnce sync.Once
	a, b       []byte

	goldenOnce sync.Once
	golden     []int32
}

// bytes is what the entry holds once its golden is computed.
func (o *matmulOperands) bytes() int64 {
	return int64(o.m*o.k) + int64(o.k*o.n) + 4*int64(o.m*o.n)
}

// matmulInputs returns A (seed 1) and B (seed 2) of a shape.
func matmulInputs(d dims) (a, b []int8) {
	a = make([]int8, d.m*d.k)
	b = make([]int8, d.k*d.n)
	workload.Fill(a, 1)
	workload.Fill(b, 2)
	return a, b
}

// inputs returns the memory images of A and B. Callers must not modify
// them.
func (o *matmulOperands) inputs() (a, b []byte) {
	o.inputsOnce.Do(func() {
		ai, bi := matmulInputs(o.dims)
		o.a, o.b = image(ai), image(bi)
	})
	return o.a, o.b
}

// goldenC returns the reference product, computing it on first call from
// freshly filled inputs with workload.MatmulInt8MKN, which shares no code
// with the device models. Callers must not modify it.
func (o *matmulOperands) goldenC() []int32 {
	o.goldenOnce.Do(func() {
		a, b := matmulInputs(o.dims)
		o.golden = workload.MatmulInt8MKN(a, b, o.m, o.k, o.n)
		o.cache.goldens.Add(1)
	})
	return o.golden
}

// image returns the bytes of an int8 matrix as they lie in memory.
func image(v []int8) []byte {
	out := make([]byte, len(v))
	for i, x := range v {
		out[i] = byte(x)
	}
	return out
}

// operandCache is an LRU memo of matmulOperands under a byte budget. An
// entry is charged its full size, golden included, when it is created,
// and one larger than the whole budget is handed out without being kept.
// It is safe for concurrent use: concurrent gets of one shape return the
// same entry, whose sync.Onces compute its contents once.
type operandCache struct {
	mu      sync.Mutex
	budget  int64
	used    int64
	lru     list.List // of *matmulOperands, most recently used first
	entries map[dims]*list.Element

	// goldens counts golden products computed.
	goldens atomic.Int64
}

func newOperandCache(budget int64) *operandCache {
	return &operandCache{budget: budget, entries: map[dims]*list.Element{}}
}

// get returns the entry for d, creating it (and evicting the least
// recently used entries past the budget) on a miss.
func (c *operandCache) get(d dims) *matmulOperands {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[d]; ok {
		c.lru.MoveToFront(el)
		return el.Value.(*matmulOperands)
	}
	o := &matmulOperands{dims: d, cache: c}
	if o.bytes() > c.budget {
		return o
	}
	c.entries[d] = c.lru.PushFront(o)
	c.used += o.bytes()
	for c.used > c.budget {
		old := c.lru.Remove(c.lru.Back()).(*matmulOperands)
		delete(c.entries, old.dims)
		c.used -= old.bytes()
	}
	return o
}
