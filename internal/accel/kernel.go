package accel

// The int8 matmul datapath both device models share. A launch maps each
// operand panel into memory with one bounds-checked mem.Region view and
// walks the output in MicroTile x MicroTile int32 micro-tiles; the models
// supply only what differs between them: the zero points, how the
// accumulators are seeded (Gemmini's D bias) and how a finished micro-tile
// is stored (Gemmini's activation and int8 saturation, OpenGeMM's int32
// store). Traffic accounting stays with the models, which add the
// per-access totals of an element-at-a-time loop with mem.AddTraffic.

import (
	"encoding/binary"
	"math/bits"
	"sync"

	"configwall/internal/mem"
)

// MicroTile is the edge of the kernel's output micro-tile. GEMM.Rows and
// GEMM.Cols must be multiples of it; both models' output tiles are.
const MicroTile = 8

// Tile is one micro-tile of int32 accumulators, indexed [row][col].
type Tile [MicroTile][MicroTile]int32

// Panel is a strided block of memory: Rows rows of Width bytes, Stride
// bytes apart, the first starting at Addr.
type Panel struct {
	Addr, Stride uint64
	Rows, Width  uint64
}

// View is a Panel mapped into memory: row i starts at Data[i*Stride].
type View struct {
	Data   []byte
	Stride int
}

// Row returns the first width bytes of row i.
func (v View) Row(i, width int) []byte {
	off := i * v.Stride
	return v.Data[off : off+width]
}

// Map returns a view of the panel through one mem.Region spanning its
// first byte through its last, (Rows-1)*Stride + Width bytes. The extent
// and end address are computed overflow-safe: a panel that wraps 2^64 or
// leaves memory is a configuration error of device, never a panic and
// never a silently wrapped, in-bounds read.
func (p Panel) Map(m *mem.Memory, device, operand string) (View, error) {
	if p.Rows == 0 || p.Width == 0 {
		return View{}, nil
	}
	hi, span := bits.Mul64(p.Rows-1, p.Stride)
	span, carry := bits.Add64(span, p.Width, 0)
	end, carry2 := bits.Add64(p.Addr, span, 0)
	if hi != 0 || carry != 0 || carry2 != 0 || end > uint64(m.Size()) {
		return View{}, ErrBadConfig(device, "%s panel at %#x (%d rows of %d bytes, stride %d) leaves memory (size %#x)",
			operand, p.Addr, p.Rows, p.Width, p.Stride, m.Size())
	}
	stride := 0
	if p.Rows > 1 {
		stride = int(p.Stride) // <= span, which fits in memory
	}
	return View{Data: m.Region(p.Addr, span), Stride: stride}, nil
}

// GEMM is one int8 matrix product over mapped panels:
// acc[r][c] += (A[r][x] - SubA) * (B[x][c] - SubB) for x ascending.
type GEMM struct {
	// Rows x Cols is the output; Depth is the reduction length.
	Rows, Cols, Depth int
	// A is Rows x Depth, B is Depth x Cols, both int8.
	A, B View
	// SubA and SubB are zero points subtracted from every operand byte.
	SubA, SubB int32
}

// MapGEMM maps the panels of A (Rows x Depth) and B (Depth x Cols) for a
// product without zero points.
func MapGEMM(m *mem.Memory, device string, a, b Panel) (GEMM, error) {
	g := GEMM{Rows: int(a.Rows), Cols: int(b.Width), Depth: int(a.Width)}
	var err error
	if g.A, err = a.Map(m, device, "A"); err != nil {
		return GEMM{}, err
	}
	if g.B, err = b.Map(m, device, "B"); err != nil {
		return GEMM{}, err
	}
	return g, nil
}

// packChunk is how many reduction steps one packed B strip holds. It
// bounds the packing scratch (packChunk*32 bytes) and keeps every packed
// lane's partial sum exact; see accumulateRow.
const packChunk = 2048

// packed is one B strip in packed form: for each x, the strip's eight
// zero-point-adjusted B values in four uint64 words, two 32-bit lanes
// each (lane l of word w holds column 2w+l).
type packed [packChunk][4]uint64

var packPool = sync.Pool{New: func() any { return new(packed) }}

// Run computes the product one micro-tile at a time, walking each
// MicroTile-wide column strip of the output top to bottom. Each
// micro-tile starts at zero; seed (when non-nil) may preload it — the
// prologue — and store receives it once every element has accumulated
// over the whole depth — the epilogue. r0 and c0 are the micro-tile's
// first output row and column. The output must not overlap A or B: the
// kernel reads them in a different order than an element-at-a-time loop.
//
// The B strip under a column strip is packed once per packChunk
// reduction steps and shared by every row of the strip, so the multiply
// loop does one load and one multiply per two MACs (see accumulateRow).
func (g *GEMM) Run(seed, store func(r0, c0 int, t *Tile)) {
	buf := packPool.Get().(*packed)
	defer packPool.Put(buf)
	var t Tile
	for c0 := 0; c0 < g.Cols; c0 += MicroTile {
		have := -1 // first x of the chunk in buf, if any
		for r0 := 0; r0 < g.Rows; r0 += MicroTile {
			t = Tile{}
			if seed != nil {
				seed(r0, c0, &t)
			}
			for x0 := 0; x0 < g.Depth; x0 += packChunk {
				n := min(packChunk, g.Depth-x0)
				if have != x0 {
					g.pack(buf[:n], x0, c0)
					have = x0
				}
				for i := range t {
					accumulateRow(&t[i], g.A.Row(r0+i, x0+n)[x0:], buf[:n], g.SubA)
				}
			}
			store(r0, c0, &t)
		}
	}
}

// pack loads B[x0+x][c0:c0+8] - SubB for every x of dst into packed
// lanes.
func (g *GEMM) pack(dst [][4]uint64, x0, c0 int) {
	sub := int64(g.SubB)
	for x := range dst {
		w := binary.LittleEndian.Uint64(g.B.Row(x0+x, c0+MicroTile)[c0:])
		for l := range dst[x] {
			lo := int64(int8(w>>(16*l))) - sub
			hi := int64(int8(w>>(16*l+8))) - sub
			dst[x][l] = uint64(lo) + uint64(hi)<<32
		}
	}
}

// accumulateRow adds one A row segment's products into one micro-tile
// row: acc[j] += (a[x]-subA) * (B[x][c0+j]-SubB), x ascending, with p
// the packed B strip of the same x range.
//
// The multiply works on two 32-bit lanes per uint64: multiplying the
// packed word lo + hi<<32 by v yields v*lo + (v*hi)<<32 modulo 2^64, so
// each of the four running sums s_w is L + H<<32 with L and H the exact
// lane sums. Every product lies within ±255*255 < 2^16 and a chunk has
// at most packChunk = 2^11 steps, so |L|, |H| < 2^27: L is the low word
// read as int32, and adding 2^31 before the shift removes L's borrow
// from H. Wrapping int32 addition is associative, so adding each chunk's
// lane sums into acc gives exactly the element-at-a-time int32 result.
//
//cwlint:hotpath
func accumulateRow(acc *[MicroTile]int32, a []byte, p [][4]uint64, subA int32) {
	p = p[:len(a)]
	var s0, s1, s2, s3 uint64
	for x, av := range a {
		v := uint64(int64(int8(av)) - int64(subA))
		q := &p[x]
		s0 += v * q[0]
		s1 += v * q[1]
		s2 += v * q[2]
		s3 += v * q[3]
	}
	addLanes(acc[0:2], s0)
	addLanes(acc[2:4], s1)
	addLanes(acc[4:6], s2)
	addLanes(acc[6:8], s3)
}

// addLanes adds the two lane sums packed in s, L + H<<32 with |L| < 2^31,
// to acc[0] and acc[1].
func addLanes(acc []int32, s uint64) {
	acc[0] += int32(s)
	acc[1] += int32((s + 1<<31) >> 32)
}
