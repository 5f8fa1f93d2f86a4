// Package opengemm models an OpenGeMM-style GeMM accelerator: an 8x8 mesh
// of int8 dot-product units (8 MACs each, 1024 ops/cycle peak) controlled by
// a tiny in-order RISC-V host through CSRs, with *concurrent* configuration:
// CSR writes land in staging registers while the accelerator runs and are
// committed at launch, so configuration overlaps computation (paper §2.2,
// §6.2).
package opengemm

import (
	"encoding/binary"

	"configwall/internal/accel"
	"configwall/internal/mem"
)

// Name is the accelerator name used in accfg types and lowerings.
const Name = "opengemm"

// Mesh geometry: MeshRow x MeshCol processing elements, each computing a
// TileK-deep int8 dot product per cycle.
const (
	MeshRow = 8
	MeshCol = 8
	TileK   = 8
)

// PeakOpsPerCycle is the peak throughput: 8*8 PEs * 8 MACs * 2 ops
// (paper §6.2: 1024 ops/cycle).
const PeakOpsPerCycle = 2 * MeshRow * MeshCol * TileK

// CSR addresses of the configuration port. Each CSR is 32 bits = 4
// configuration bytes.
const (
	CsrPtrA uint32 = 0x3c0 + iota
	CsrPtrB
	CsrPtrC
	CsrM // row tiles (units of MeshRow)
	CsrK // reduction tiles (units of TileK)
	CsrN // column tiles (units of MeshCol)
	CsrStrideA
	CsrStrideB
	CsrStrideC
	CsrSubtractions // packed zero points for A and B
	CsrFlags        // output mode flags
	CsrLaunch       // write 1 to launch
	CsrBusy         // read-only: 1 while computing
	CsrPerfCounter  // read-only: busy cycles of the last job
)

// Fields maps accfg field names to CSR addresses; the accfg-to-CSR lowering
// and the workload builders share it.
var Fields = map[string]uint32{
	"ptr_a": CsrPtrA, "ptr_b": CsrPtrB, "ptr_c": CsrPtrC,
	"m": CsrM, "k": CsrK, "n": CsrN,
	"stride_a": CsrStrideA, "stride_b": CsrStrideB, "stride_c": CsrStrideC,
	"subtractions": CsrSubtractions, "flags": CsrFlags,
}

// FieldOrder lists the configuration fields in canonical issue order.
var FieldOrder = []string{
	"ptr_a", "ptr_b", "ptr_c", "m", "k", "n",
	"stride_a", "stride_b", "stride_c", "subtractions", "flags",
}

// CostParams tunes the GeMM core timing model.
type CostParams struct {
	// PipelineCycles is the fixed fill/drain latency per launch.
	PipelineCycles uint64
}

// DefaultCost returns the default timing model.
func DefaultCost() CostParams { return CostParams{PipelineCycles: 5} }

// Model is the simulated device state.
type Model struct {
	cost    CostParams
	staging map[uint32]uint32
	// Launches counts completed launches.
	Launches uint64
}

// New returns a fresh OpenGeMM model.
func New(cost CostParams) *Model {
	return &Model{cost: cost, staging: map[uint32]uint32{}}
}

// Name implements accel.Device.
func (m *Model) Name() string { return Name }

// Scheme implements accel.Device: OpenGeMM configures concurrently.
func (m *Model) Scheme() accel.Scheme { return accel.Concurrent }

// WriteConfig implements accel.Device: CSR writes stage the low 32 bits.
func (m *Model) WriteConfig(id uint32, lo, _ uint64) {
	m.staging[id] = uint32(lo)
}

// ConfigBytes implements accel.Device: 32-bit CSRs carry 4 bytes.
func (m *Model) ConfigBytes(uint32) uint64 { return 4 }

// IsLaunch implements accel.Device.
func (m *Model) IsLaunch(id uint32) bool { return id == CsrLaunch }

// IsFence implements accel.Device: OpenGeMM synchronizes by polling the
// busy CSR, not with a fence write.
func (m *Model) IsFence(uint32) bool { return false }

// StatusID implements accel.Device.
func (m *Model) StatusID() (uint32, bool) { return CsrBusy, true }

// Launch implements accel.Device: commits the staged configuration and
// executes C[m*8, n*8] (int32) = A[m*8, k*8] (int8) x B[k*8, n*8] (int8)
// with the configured byte strides.
func (m *Model) Launch(mm *mem.Memory) (accel.Launch, error) {
	mTiles := uint64(m.staging[CsrM])
	kTiles := uint64(m.staging[CsrK])
	nTiles := uint64(m.staging[CsrN])
	if mTiles == 0 || kTiles == 0 || nTiles == 0 {
		return accel.Launch{}, accel.ErrBadConfig(Name, "zero tile counts m=%d k=%d n=%d", mTiles, kTiles, nTiles)
	}
	a := uint64(m.staging[CsrPtrA])
	b := uint64(m.staging[CsrPtrB])
	c := uint64(m.staging[CsrPtrC])
	if a == 0 || b == 0 || c == 0 {
		return accel.Launch{}, accel.ErrBadConfig(Name, "null pointer a=%#x b=%#x c=%#x", a, b, c)
	}
	strideA := uint64(m.staging[CsrStrideA])
	strideB := uint64(m.staging[CsrStrideB])
	strideC := uint64(m.staging[CsrStrideC])
	subA := int32(int8(m.staging[CsrSubtractions]))
	subB := int32(int8(m.staging[CsrSubtractions] >> 8))

	rows := mTiles * MeshRow
	cols := nTiles * MeshCol
	depth := kTiles * TileK

	g, err := accel.MapGEMM(mm, Name,
		accel.Panel{Addr: a, Stride: strideA, Rows: rows, Width: depth},
		accel.Panel{Addr: b, Stride: strideB, Rows: depth, Width: cols})
	if err != nil {
		return accel.Launch{}, err
	}
	g.SubA, g.SubB = subA, subB
	cv, err := accel.Panel{Addr: c, Stride: strideC, Rows: rows, Width: 4 * cols}.Map(mm, Name, "C")
	if err != nil {
		return accel.Launch{}, err
	}
	// No prologue: accumulators start at zero. The epilogue stores int32.
	g.Run(nil, func(r0, c0 int, t *accel.Tile) {
		for r := range t {
			crow := cv.Row(r0+r, 4*int(cols))[4*c0:]
			for cc, acc := range t[r] {
				binary.LittleEndian.PutUint32(crow[4*cc:], uint32(acc))
			}
		}
	})
	// Modeled traffic of the per-element loop: one A and one B byte per
	// MAC, four C bytes per output.
	elems := rows * cols
	macs := elems * depth
	mm.AddTraffic(2*macs, 4*elems)

	ops := 2 * macs
	cycles := mTiles*nTiles*kTiles + m.cost.PipelineCycles
	m.Launches++
	return accel.Launch{Ops: ops, Cycles: cycles}, nil
}
