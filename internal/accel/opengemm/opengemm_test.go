package opengemm_test

import (
	"bytes"
	"math/rand/v2"
	"strings"
	"testing"

	"configwall/internal/accel"
	"configwall/internal/accel/opengemm"
	"configwall/internal/mem"
	"configwall/internal/workload"
)

func configure(m *opengemm.Model, vals map[uint32]uint32) {
	for addr, v := range vals {
		m.WriteConfig(addr, uint64(v), 0)
	}
}

func TestDeviceProperties(t *testing.T) {
	m := opengemm.New(opengemm.DefaultCost())
	if m.Name() != "opengemm" {
		t.Errorf("Name = %q", m.Name())
	}
	if m.Scheme() != accel.Concurrent {
		t.Error("opengemm must be concurrently configured")
	}
	if !m.IsLaunch(opengemm.CsrLaunch) || m.IsLaunch(opengemm.CsrPtrA) {
		t.Error("IsLaunch wrong")
	}
	if m.IsFence(opengemm.CsrLaunch) {
		t.Error("opengemm has no fence id")
	}
	id, ok := m.StatusID()
	if !ok || id != opengemm.CsrBusy {
		t.Error("StatusID must be the busy CSR")
	}
	if m.ConfigBytes(opengemm.CsrPtrA) != 4 {
		t.Errorf("ConfigBytes = %d, want 4 (32-bit CSR)", m.ConfigBytes(opengemm.CsrPtrA))
	}
}

func TestFieldMapCoversOrder(t *testing.T) {
	if len(opengemm.FieldOrder) != len(opengemm.Fields) {
		t.Fatalf("FieldOrder has %d entries, Fields has %d", len(opengemm.FieldOrder), len(opengemm.Fields))
	}
	seen := map[uint32]bool{}
	for _, name := range opengemm.FieldOrder {
		addr, ok := opengemm.Fields[name]
		if !ok {
			t.Errorf("FieldOrder entry %q missing from Fields", name)
		}
		if seen[addr] {
			t.Errorf("CSR %#x mapped twice", addr)
		}
		seen[addr] = true
	}
}

func TestLaunchComputesMatmul(t *testing.T) {
	const n = 16
	mm := mem.New(1 << 20)
	a := make([]int8, n*n)
	b := make([]int8, n*n)
	workload.FillMatrix(a, n, 3)
	workload.FillMatrix(b, n, 4)
	const aBase, bBase, cBase = 0x1000, 0x2000, 0x4000
	for i := range a {
		mm.Write8(aBase+uint64(i), uint8(a[i]))
		mm.Write8(bBase+uint64(i), uint8(b[i]))
	}
	dev := opengemm.New(opengemm.DefaultCost())
	configure(dev, map[uint32]uint32{
		opengemm.CsrPtrA: aBase, opengemm.CsrPtrB: bBase, opengemm.CsrPtrC: cBase,
		opengemm.CsrM: n / 8, opengemm.CsrK: n / 8, opengemm.CsrN: n / 8,
		opengemm.CsrStrideA: n, opengemm.CsrStrideB: n, opengemm.CsrStrideC: 4 * n,
	})
	job, err := dev.Launch(mm)
	if err != nil {
		t.Fatal(err)
	}
	if job.Ops != 2*n*n*n {
		t.Errorf("Ops = %d, want %d", job.Ops, 2*n*n*n)
	}
	golden := workload.MatmulInt8(a, b, n)
	for i, want := range golden {
		if got := int32(mm.Read32(cBase + uint64(4*i))); got != want {
			t.Fatalf("C[%d] = %d, want %d", i, got, want)
		}
	}
}

// TestLaunchTrafficCounters pins the traffic accounting of the
// panel kernel to the per-access totals of the
// element-at-a-time model: one A and one B byte per MAC, 4 C bytes per
// output element.
func TestLaunchTrafficCounters(t *testing.T) {
	const n = 16
	mm := mem.New(1 << 20)
	const aBase, bBase, cBase = 0x1000, 0x2000, 0x4000
	dev := opengemm.New(opengemm.DefaultCost())
	configure(dev, map[uint32]uint32{
		opengemm.CsrPtrA: aBase, opengemm.CsrPtrB: bBase, opengemm.CsrPtrC: cBase,
		opengemm.CsrM: n / 8, opengemm.CsrK: n / 8, opengemm.CsrN: n / 8,
		opengemm.CsrStrideA: n, opengemm.CsrStrideB: n, opengemm.CsrStrideC: 4 * n,
	})
	mm.ResetCounters()
	if _, err := dev.Launch(mm); err != nil {
		t.Fatal(err)
	}
	if want := uint64(2 * n * n * n); mm.BytesRead != want {
		t.Errorf("BytesRead = %d, want %d", mm.BytesRead, want)
	}
	if want := uint64(4 * n * n); mm.BytesWritten != want {
		t.Errorf("BytesWritten = %d, want %d", mm.BytesWritten, want)
	}
}

func TestZeroPointSubtraction(t *testing.T) {
	const n = 8
	mm := mem.New(1 << 16)
	const aBase, bBase, cBase = 0x100, 0x200, 0x400
	// A = 3 everywhere, B = 5 everywhere, zero points a0=3, b0=5:
	// (3-3)*(5-5) summed = 0.
	for i := 0; i < n*n; i++ {
		mm.Write8(aBase+uint64(i), 3)
		mm.Write8(bBase+uint64(i), 5)
	}
	dev := opengemm.New(opengemm.DefaultCost())
	configure(dev, map[uint32]uint32{
		opengemm.CsrPtrA: aBase, opengemm.CsrPtrB: bBase, opengemm.CsrPtrC: cBase,
		opengemm.CsrM: 1, opengemm.CsrK: 1, opengemm.CsrN: 1,
		opengemm.CsrStrideA: n, opengemm.CsrStrideB: n, opengemm.CsrStrideC: 4 * n,
		opengemm.CsrSubtractions: 3 | 5<<8,
	})
	if _, err := dev.Launch(mm); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n*n; i++ {
		if got := int32(mm.Read32(cBase + uint64(4*i))); got != 0 {
			t.Fatalf("C[%d] = %d, want 0 with matching zero points", i, got)
		}
	}
}

func TestStagingSemantics(t *testing.T) {
	// Writes after a launch must not disturb the snapshot taken at launch
	// time in the returned job, but apply to the next launch.
	const n = 8
	mm := mem.New(1 << 16)
	const aBase, bBase, c1, c2 = 0x100, 0x200, 0x400, 0x800
	mm.Write8(aBase, 1)
	mm.Write8(bBase, 1)
	dev := opengemm.New(opengemm.DefaultCost())
	configure(dev, map[uint32]uint32{
		opengemm.CsrPtrA: aBase, opengemm.CsrPtrB: bBase, opengemm.CsrPtrC: c1,
		opengemm.CsrM: 1, opengemm.CsrK: 1, opengemm.CsrN: 1,
		opengemm.CsrStrideA: n, opengemm.CsrStrideB: n, opengemm.CsrStrideC: 4 * n,
	})
	if _, err := dev.Launch(mm); err != nil {
		t.Fatal(err)
	}
	// Retarget C and launch again.
	dev.WriteConfig(opengemm.CsrPtrC, c2, 0)
	if _, err := dev.Launch(mm); err != nil {
		t.Fatal(err)
	}
	if got := int32(mm.Read32(c1)); got != 1 {
		t.Errorf("first output = %d, want 1", got)
	}
	if got := int32(mm.Read32(c2)); got != 1 {
		t.Errorf("second output = %d, want 1", got)
	}
	if dev.Launches != 2 {
		t.Errorf("Launches = %d, want 2", dev.Launches)
	}
}

func TestLaunchErrors(t *testing.T) {
	mm := mem.New(1 << 12)
	t.Run("zero tiles", func(t *testing.T) {
		dev := opengemm.New(opengemm.DefaultCost())
		configure(dev, map[uint32]uint32{opengemm.CsrPtrA: 1, opengemm.CsrPtrB: 1, opengemm.CsrPtrC: 1})
		if _, err := dev.Launch(mm); err == nil {
			t.Error("expected error for zero tile counts")
		}
	})
	t.Run("null pointer", func(t *testing.T) {
		dev := opengemm.New(opengemm.DefaultCost())
		configure(dev, map[uint32]uint32{opengemm.CsrM: 1, opengemm.CsrK: 1, opengemm.CsrN: 1})
		if _, err := dev.Launch(mm); err == nil {
			t.Error("expected error for null pointers")
		}
	})
}

func TestCycleModel(t *testing.T) {
	mm := mem.New(1 << 20)
	dev := opengemm.New(opengemm.CostParams{PipelineCycles: 5})
	configure(dev, map[uint32]uint32{
		opengemm.CsrPtrA: 0x100, opengemm.CsrPtrB: 0x200, opengemm.CsrPtrC: 0x400,
		opengemm.CsrM: 1, opengemm.CsrK: 4, opengemm.CsrN: 1,
		opengemm.CsrStrideA: 64, opengemm.CsrStrideB: 64, opengemm.CsrStrideC: 256,
	})
	job, err := dev.Launch(mm)
	if err != nil {
		t.Fatal(err)
	}
	if job.Cycles != 1*1*4+5 {
		t.Errorf("Cycles = %d, want 9 (m*n*k + pipeline)", job.Cycles)
	}
	// Peak check: ops/cycles can never exceed the peak throughput.
	if float64(job.Ops)/float64(job.Cycles) > opengemm.PeakOpsPerCycle {
		t.Error("cycle model exceeds peak throughput")
	}
}

// referenceLaunch is the element-at-a-time OpenGeMM datapath the shared
// panel kernel must reproduce: per output element, one checked A and one
// checked B byte read per MAC with x ascending, each less its zero point,
// then one checked int32 C write. It returns the launch the model should
// report.
func referenceLaunch(mm *mem.Memory, csr map[uint32]uint32) accel.Launch {
	at := func(id uint32) uint64 { return uint64(csr[id]) }
	rows, cols, depth := at(opengemm.CsrM)*opengemm.MeshRow, at(opengemm.CsrN)*opengemm.MeshCol, at(opengemm.CsrK)*opengemm.TileK
	subA := int32(int8(csr[opengemm.CsrSubtractions]))
	subB := int32(int8(csr[opengemm.CsrSubtractions] >> 8))
	for r := uint64(0); r < rows; r++ {
		for c := uint64(0); c < cols; c++ {
			var acc int32
			for x := uint64(0); x < depth; x++ {
				av := int32(int8(mm.Read8(at(opengemm.CsrPtrA)+r*at(opengemm.CsrStrideA)+x))) - subA
				bv := int32(int8(mm.Read8(at(opengemm.CsrPtrB)+x*at(opengemm.CsrStrideB)+c))) - subB
				acc += av * bv
			}
			mm.Write32(at(opengemm.CsrPtrC)+r*at(opengemm.CsrStrideC)+4*c, uint32(acc))
		}
	}
	return accel.Launch{
		Ops:    2 * rows * cols * depth,
		Cycles: at(opengemm.CsrM)*at(opengemm.CsrN)*at(opengemm.CsrK) + opengemm.DefaultCost().PipelineCycles,
	}
}

// TestLaunchMatchesReference runs seeded random launches through the model
// and through referenceLaunch on identical memories, and requires
// identical memory contents, traffic counters and launch costs. The
// configurations cover several tiles in both output dimensions, strides
// wider than their panels, non-zero zero points, a reduction deeper than
// one packed chunk, and zero-heavy A.
func TestLaunchMatchesReference(t *testing.T) {
	type shape struct {
		m, n, k    uint32
		subA, subB int8
		zeroA      bool
	}
	cases := []shape{
		{m: 3, n: 2, k: 4},
		{m: 2, n: 3, k: 2, subA: -128, subB: 127},
		{m: 1, n: 2, k: 260, subA: 5, subB: -7},
		{m: 2, n: 2, k: 3, zeroA: true},
	}
	rng := rand.New(rand.NewPCG(21, 0))
	for range 12 {
		cases = append(cases, shape{
			m: 1 + rng.Uint32N(4), n: 1 + rng.Uint32N(4), k: 1 + rng.Uint32N(12),
			subA: int8(rng.Uint32()), subB: int8(rng.Uint32()), zeroA: rng.IntN(4) == 0,
		})
	}
	for i, sc := range cases {
		rows, cols, depth := sc.m*opengemm.MeshRow, sc.n*opengemm.MeshCol, sc.k*opengemm.TileK
		// Strides are the panel width or up to 40 bytes wider.
		widen := func(w uint32) uint32 { return w + uint32(rng.IntN(2))*rng.Uint32N(41) }
		csr := map[uint32]uint32{
			opengemm.CsrM: sc.m, opengemm.CsrN: sc.n, opengemm.CsrK: sc.k,
			opengemm.CsrStrideA: widen(depth), opengemm.CsrStrideB: widen(cols), opengemm.CsrStrideC: widen(4 * cols),
			opengemm.CsrSubtractions: uint32(uint8(sc.subA)) | uint32(uint8(sc.subB))<<8,
		}
		next := uint32(0x100)
		place := func(ptr, stride uint32, rows, width uint32) {
			csr[ptr] = next
			next += (rows-1)*csr[stride] + width + rng.Uint32N(64)
		}
		place(opengemm.CsrPtrA, opengemm.CsrStrideA, rows, depth)
		place(opengemm.CsrPtrB, opengemm.CsrStrideB, depth, cols)
		place(opengemm.CsrPtrC, opengemm.CsrStrideC, rows, 4*cols)
		img := make([]byte, next)
		for p := range img {
			img[p] = byte(rng.Uint32())
		}
		if sc.zeroA {
			for p := csr[opengemm.CsrPtrA]; p < csr[opengemm.CsrPtrB]; p++ {
				if rng.IntN(8) != 0 {
					img[p] = 0
				}
			}
		}
		model, ref := mem.New(int(next)), mem.New(int(next))
		copy(model.Region(0, uint64(next)), img)
		copy(ref.Region(0, uint64(next)), img)

		dev := opengemm.New(opengemm.DefaultCost())
		configure(dev, csr)
		got, err := dev.Launch(model)
		if err != nil {
			t.Fatalf("case %d %+v: %v", i, sc, err)
		}
		want := referenceLaunch(ref, csr)
		if got != want {
			t.Errorf("case %d %+v: launch %+v, reference %+v", i, sc, got, want)
		}
		if model.BytesRead != ref.BytesRead || model.BytesWritten != ref.BytesWritten {
			t.Errorf("case %d %+v: traffic read/written %d/%d, reference %d/%d",
				i, sc, model.BytesRead, model.BytesWritten, ref.BytesRead, ref.BytesWritten)
		}
		if !bytes.Equal(model.Snapshot(0, uint64(next)), ref.Snapshot(0, uint64(next))) {
			t.Errorf("case %d %+v: memory differs from the reference", i, sc)
		}
	}
}

// TestLaunchRejectsWrappingPanel: a panel whose last row lies past 2^64
// or past the end of memory is a configuration error, not a panic.
func TestLaunchRejectsWrappingPanel(t *testing.T) {
	mm := mem.New(1 << 16)
	for name, over := range map[string]map[uint32]uint32{
		"extent wraps":  {opengemm.CsrM: 1 << 31, opengemm.CsrStrideA: 1<<32 - 1},
		"leaves memory": {opengemm.CsrPtrC: 1<<16 - 0x80},
	} {
		csr := map[uint32]uint32{
			opengemm.CsrPtrA: 0x1000, opengemm.CsrPtrB: 0x2000, opengemm.CsrPtrC: 0x3000,
			opengemm.CsrM: 1, opengemm.CsrK: 1, opengemm.CsrN: 1,
			opengemm.CsrStrideA: 8, opengemm.CsrStrideB: 8, opengemm.CsrStrideC: 32,
		}
		for id, v := range over {
			csr[id] = v
		}
		dev := opengemm.New(opengemm.DefaultCost())
		configure(dev, csr)
		if _, err := dev.Launch(mm); err == nil || !strings.Contains(err.Error(), "bad configuration") {
			t.Errorf("%s: err = %v, want a bad-configuration error", name, err)
		}
	}
}
