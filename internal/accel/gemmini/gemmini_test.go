package gemmini_test

import (
	"bytes"
	"encoding/binary"
	"math/rand/v2"
	"strings"
	"testing"
	"testing/quick"

	"configwall/internal/accel"
	"configwall/internal/accel/gemmini"
	"configwall/internal/mem"
	"configwall/internal/workload"
)

// writeFields packs field values into the model's registers per the
// Sequence descriptor, mimicking what the lowering + simulator do.
func writeFields(m *gemmini.Model, fields map[string]uint64) {
	for _, ci := range gemmini.Sequence {
		var rs [2]uint64
		any := false
		for _, s := range ci.Slots {
			v, ok := fields[s.Field]
			if !ok {
				continue
			}
			any = true
			if s.Bits < 64 {
				v &= (1 << s.Bits) - 1
			}
			rs[s.Reg] |= v << s.Offset
		}
		if any {
			m.WriteConfig(ci.Funct7, rs[0], rs[1])
		}
	}
}

func TestDeviceProperties(t *testing.T) {
	m := gemmini.New(gemmini.DefaultCost())
	if m.Name() != "gemmini" {
		t.Errorf("Name = %q", m.Name())
	}
	if m.Scheme() != accel.Sequential {
		t.Error("gemmini must be sequentially configured")
	}
	if !m.IsLaunch(gemmini.FnLoopWS) || m.IsLaunch(gemmini.FnConfigBounds) {
		t.Error("IsLaunch wrong")
	}
	if !m.IsFence(gemmini.FnFence) || m.IsFence(gemmini.FnLoopWS) {
		t.Error("IsFence wrong")
	}
	if _, ok := m.StatusID(); ok {
		t.Error("gemmini has no status CSR")
	}
	if m.ConfigBytes(0) != 16 {
		t.Errorf("ConfigBytes = %d, want 16", m.ConfigBytes(0))
	}
}

func TestSequenceDescriptorConsistency(t *testing.T) {
	seen := map[string]bool{}
	for _, ci := range gemmini.Sequence {
		for _, s := range ci.Slots {
			if seen[s.Field] {
				t.Errorf("field %q appears in two instructions", s.Field)
			}
			seen[s.Field] = true
			if s.Offset+s.Bits > 64 {
				t.Errorf("field %q overflows its register (%d+%d)", s.Field, s.Offset, s.Bits)
			}
			if _, ok := gemmini.FieldMeanings[s.Field]; !ok {
				t.Errorf("field %q missing a Table 1 meaning", s.Field)
			}
			ci2, ok := gemmini.InstrFor(s.Field)
			if !ok || ci2.Funct7 != ci.Funct7 {
				t.Errorf("InstrFor(%q) inconsistent", s.Field)
			}
		}
	}
	// No two slots of one instruction overlap.
	for _, ci := range gemmini.Sequence {
		for i, a := range ci.Slots {
			for _, b := range ci.Slots[i+1:] {
				if a.Reg != b.Reg {
					continue
				}
				aEnd := a.Offset + a.Bits
				bEnd := b.Offset + b.Bits
				if a.Offset < bEnd && b.Offset < aEnd {
					t.Errorf("fields %q and %q overlap in %s", a.Field, b.Field, ci.Name)
				}
			}
		}
	}
}

func TestTable1Content(t *testing.T) {
	tbl := gemmini.Table1()
	for _, field := range []string{"A", "B", "D", "C", "I", "J", "K", "pad_I", "stride_A", "act", "A_transpose"} {
		if !strings.Contains(tbl, field) {
			t.Errorf("Table 1 missing paper field %q", field)
		}
	}
	// Paper bit widths: addresses 64, sizes 16, act 6, transposes 1.
	for _, row := range []string{"64", "16", "6", "1"} {
		if !strings.Contains(tbl, row) {
			t.Errorf("Table 1 missing bit width %s", row)
		}
	}
}

// TestFieldPackRoundTripProperty: packing a value into its slot and decoding
// it back through the model yields the truncated value (testing/quick).
func TestFieldPackRoundTripProperty(t *testing.T) {
	prop := func(raw uint64, pick uint8) bool {
		fields := gemmini.FieldBits()
		f := fields[int(pick)%len(fields)]
		m := gemmini.New(gemmini.DefaultCost())
		want := raw
		if f.Bits < 64 {
			want &= (1 << f.Bits) - 1
		}
		writeFields(m, map[string]uint64{f.Field: raw})
		// Decode through a launch would need full config; use the packing
		// invariant instead: re-extract via the descriptor.
		ci, _ := gemmini.InstrFor(f.Field)
		var rs [2]uint64
		for _, s := range ci.Slots {
			if s.Field == f.Field {
				v := want
				rs[s.Reg] = v << s.Offset
				got := (rs[s.Reg] >> s.Offset)
				if s.Bits < 64 {
					got &= (1 << s.Bits) - 1
				}
				return got == want
			}
		}
		return false
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestLaunchComputesMatmul(t *testing.T) {
	const n = 32
	mm := mem.New(1 << 20)
	a := make([]int8, n*n)
	b := make([]int8, n*n)
	workload.FillMatrix(a, n, 7)
	workload.FillMatrix(b, n, 8)
	const aBase, bBase, cBase = 0x1000, 0x2000, 0x3000
	for i := range a {
		mm.Write8(aBase+uint64(i), uint8(a[i]))
		mm.Write8(bBase+uint64(i), uint8(b[i]))
	}

	dev := gemmini.New(gemmini.DefaultCost())
	writeFields(dev, map[string]uint64{
		"A": aBase, "B": bBase, "C": cBase, "D": 0,
		"I": n / 16, "J": n / 16, "K": n / 16,
		"stride_A": n, "stride_B": n, "stride_C": n,
	})
	job, err := dev.Launch(mm)
	if err != nil {
		t.Fatal(err)
	}
	if job.Ops != 2*n*n*n {
		t.Errorf("Ops = %d, want %d", job.Ops, 2*n*n*n)
	}
	if job.Cycles == 0 {
		t.Error("Cycles must be positive")
	}
	golden := workload.MatmulInt8(a, b, n)
	for i, want := range golden {
		got := int8(mm.Read8(cBase + uint64(i)))
		if got != workload.SaturateInt8(want) {
			t.Fatalf("C[%d] = %d, want %d", i, got, workload.SaturateInt8(want))
		}
	}
	if dev.Launches != 1 {
		t.Errorf("Launches = %d, want 1", dev.Launches)
	}
}

// TestLaunchTrafficCounters pins the memory-traffic accounting of the
// panel kernel to the per-access totals of the element-at-a-time
// model: one A byte and one B byte per MAC, a 4-byte bias read
// per output element when D is configured, one C byte per output element.
func TestLaunchTrafficCounters(t *testing.T) {
	const n = 32
	mm := mem.New(1 << 20)
	const aBase, bBase, dBase, cBase = 0x1000, 0x2000, 0x8000, 0x3000
	dev := gemmini.New(gemmini.DefaultCost())
	for _, withBias := range []bool{false, true} {
		fields := map[string]uint64{
			"A": aBase, "B": bBase, "C": cBase, "D": 0,
			"I": n / 16, "J": n / 16, "K": n / 16,
			"stride_A": n, "stride_B": n, "stride_C": n, "stride_D": 4 * n,
		}
		if withBias {
			fields["D"] = dBase
		}
		writeFields(dev, fields)
		mm.ResetCounters()
		if _, err := dev.Launch(mm); err != nil {
			t.Fatal(err)
		}
		wantRead := uint64(2 * n * n * n)
		if withBias {
			wantRead += 4 * n * n
		}
		if mm.BytesRead != wantRead {
			t.Errorf("bias=%v: BytesRead = %d, want %d", withBias, mm.BytesRead, wantRead)
		}
		if mm.BytesWritten != n*n {
			t.Errorf("bias=%v: BytesWritten = %d, want %d", withBias, mm.BytesWritten, n*n)
		}
	}
}

func TestLaunchWithBiasAndRelu(t *testing.T) {
	const n = 16
	mm := mem.New(1 << 20)
	const aBase, bBase, dBase, cBase = 0x1000, 0x2000, 0x3000, 0x5000
	// A = I (identity), B = -1 everywhere, D = +2 bias: C = relu(B + 2).
	for i := 0; i < n; i++ {
		mm.Write8(aBase+uint64(i*n+i), 1)
		for j := 0; j < n; j++ {
			mm.Write8(bBase+uint64(i*n+j), 0xff)
			mm.Write32(dBase+uint64(4*(i*n+j)), 2)
		}
	}
	dev := gemmini.New(gemmini.DefaultCost())
	writeFields(dev, map[string]uint64{
		"A": aBase, "B": bBase, "D": dBase, "C": cBase,
		"I": 1, "J": 1, "K": 1,
		"stride_A": n, "stride_B": n, "stride_D": 4 * n, "stride_C": n,
		"act": 1, // ReLU
	})
	if _, err := dev.Launch(mm); err != nil {
		t.Fatal(err)
	}
	// -1 + 2 = 1, relu(1) = 1.
	for i := 0; i < n*n; i++ {
		if got := int8(mm.Read8(cBase + uint64(i))); got != 1 {
			t.Fatalf("C[%d] = %d, want 1", i, got)
		}
	}
}

func TestLaunchErrors(t *testing.T) {
	mm := mem.New(1 << 16)
	t.Run("zero bounds", func(t *testing.T) {
		dev := gemmini.New(gemmini.DefaultCost())
		writeFields(dev, map[string]uint64{"A": 1, "B": 1, "C": 1})
		if _, err := dev.Launch(mm); err == nil {
			t.Error("expected error for zero I/J/K")
		}
	})
	t.Run("null address", func(t *testing.T) {
		dev := gemmini.New(gemmini.DefaultCost())
		writeFields(dev, map[string]uint64{"I": 1, "J": 1, "K": 1})
		if _, err := dev.Launch(mm); err == nil {
			t.Error("expected error for null matrix addresses")
		}
	})
	t.Run("transpose unsupported", func(t *testing.T) {
		dev := gemmini.New(gemmini.DefaultCost())
		writeFields(dev, map[string]uint64{
			"A": 0x100, "B": 0x200, "C": 0x300, "I": 1, "J": 1, "K": 1,
			"A_transpose": 1,
		})
		if _, err := dev.Launch(mm); err == nil {
			t.Error("expected error for transposed operand")
		}
	})
}

func TestCostModelScaling(t *testing.T) {
	mm := mem.New(1 << 22)
	run := func(tiles uint64) uint64 {
		dev := gemmini.New(gemmini.DefaultCost())
		writeFields(dev, map[string]uint64{
			"A": 0x1000, "B": 0x40000, "C": 0x80000,
			"I": tiles, "J": tiles, "K": 1,
			"stride_A": 64, "stride_B": 64, "stride_C": 64,
		})
		job, err := dev.Launch(mm)
		if err != nil {
			t.Fatal(err)
		}
		return job.Cycles
	}
	small, large := run(1), run(4)
	if large <= small {
		t.Errorf("cycles must grow with tile count: %d vs %d", small, large)
	}
}

// referenceLaunch is the element-at-a-time Gemmini datapath the shared
// panel kernel must reproduce: per output element, the int32 D bias (when
// D is configured), then one checked A and one checked B byte read per
// MAC with x ascending, then the activation and int8 saturation into one
// checked C byte write. It returns the launch the model should report.
func referenceLaunch(mm *mem.Memory, f map[string]uint64) accel.Launch {
	rows, cols, depth := f["I"]*gemmini.Dim, f["J"]*gemmini.Dim, f["K"]*gemmini.Dim
	for r := uint64(0); r < rows; r++ {
		for c := uint64(0); c < cols; c++ {
			var acc int32
			if f["D"] != 0 {
				acc = int32(mm.Read32(f["D"] + r*f["stride_D"] + 4*c))
			}
			for x := uint64(0); x < depth; x++ {
				av := int32(int8(mm.Read8(f["A"] + r*f["stride_A"] + x)))
				bv := int32(int8(mm.Read8(f["B"] + x*f["stride_B"] + c)))
				acc += av * bv
			}
			if f["act"] == 1 && acc < 0 {
				acc = 0
			}
			mm.Write8(f["C"]+r*f["stride_C"]+c, uint8(workload.SaturateInt8(acc)))
		}
	}
	cost := gemmini.DefaultCost()
	tiles := f["I"] * f["J"]
	return accel.Launch{
		Ops:    2 * rows * cols * depth,
		Cycles: cost.StartupCycles + tiles*f["K"]*gemmini.Dim + tiles*cost.DrainCycles,
	}
}

// TestLaunchMatchesReference runs seeded random launches through the model
// and through referenceLaunch on identical memories, and requires
// identical memory contents, traffic counters and launch costs. The
// configurations cover several tiles in both output dimensions, strides
// wider than their panels, a reduction deeper than one packed chunk, the
// D bias with and without ReLU, and zero-heavy A.
func TestLaunchMatchesReference(t *testing.T) {
	type shape struct {
		i, j, k    uint64
		bias, relu bool
		zeroA      bool
		// small draws operands from [-3, 3] and biases from [-200, 200],
		// so most outputs land inside the int8 range instead of
		// saturating and a wrong sum shows in C.
		small bool
	}
	cases := []shape{
		{i: 2, j: 3, k: 2},
		{i: 3, j: 2, k: 1, bias: true, relu: true, small: true},
		{i: 1, j: 2, k: 130, bias: true, small: true},
		{i: 2, j: 2, k: 3, zeroA: true, relu: true, small: true},
	}
	rng := rand.New(rand.NewPCG(12, 0))
	for range 12 {
		cases = append(cases, shape{
			i: 1 + rng.Uint64N(4), j: 1 + rng.Uint64N(4), k: 1 + rng.Uint64N(6),
			bias: rng.IntN(2) == 0, relu: rng.IntN(2) == 0, zeroA: rng.IntN(4) == 0,
			small: rng.IntN(4) != 0,
		})
	}
	for n, sc := range cases {
		rows, cols, depth := sc.i*gemmini.Dim, sc.j*gemmini.Dim, sc.k*gemmini.Dim
		// Strides are the panel width or up to 40 bytes wider.
		widen := func(w uint64) uint64 { return w + uint64(rng.IntN(2))*rng.Uint64N(41) }
		f := map[string]uint64{
			"I": sc.i, "J": sc.j, "K": sc.k,
			"stride_A": widen(depth), "stride_B": widen(cols), "stride_C": widen(cols), "stride_D": widen(4 * cols),
		}
		if sc.relu {
			f["act"] = 1
		}
		next := uint64(0x100)
		place := func(field string, rows, width uint64) {
			f[field] = next
			next += (rows-1)*f["stride_"+field] + width + uint64(rng.IntN(64))
		}
		place("A", rows, depth)
		place("B", depth, cols)
		place("C", rows, cols)
		if sc.bias {
			place("D", rows, 4*cols)
		} else {
			f["D"] = 0
		}
		img := make([]byte, next)
		for p := range img {
			img[p] = byte(rng.Uint32())
			if sc.small {
				img[p] = byte(rng.IntN(7) - 3)
			}
		}
		if sc.bias && sc.small {
			for r := range rows {
				for c := range cols {
					binary.LittleEndian.PutUint32(img[f["D"]+r*f["stride_D"]+4*c:], uint32(rng.IntN(401)-200))
				}
			}
		}
		if sc.zeroA {
			for p := f["A"]; p < f["B"]; p++ {
				if rng.IntN(8) != 0 {
					img[p] = 0
				}
			}
		}
		model, ref := mem.New(int(next)), mem.New(int(next))
		copy(model.Region(0, next), img)
		copy(ref.Region(0, next), img)

		dev := gemmini.New(gemmini.DefaultCost())
		writeFields(dev, f)
		got, err := dev.Launch(model)
		if err != nil {
			t.Fatalf("case %d %+v: %v", n, sc, err)
		}
		want := referenceLaunch(ref, f)
		if got != want {
			t.Errorf("case %d %+v: launch %+v, reference %+v", n, sc, got, want)
		}
		if model.BytesRead != ref.BytesRead || model.BytesWritten != ref.BytesWritten {
			t.Errorf("case %d %+v: traffic read/written %d/%d, reference %d/%d",
				n, sc, model.BytesRead, model.BytesWritten, ref.BytesRead, ref.BytesWritten)
		}
		if !bytes.Equal(model.Snapshot(0, next), ref.Snapshot(0, next)) {
			t.Errorf("case %d %+v: memory differs from the reference", n, sc)
		}
	}
}

// TestLaunchRejectsWrappingPanel: a 64-bit A stride that wraps a later row
// back to an in-bounds address is a configuration error, not a silent
// read; so is a panel that runs past the end of memory.
func TestLaunchRejectsWrappingPanel(t *testing.T) {
	mm := mem.New(1 << 16)
	for name, f := range map[string]map[string]uint64{
		"stride wraps":  {"A": 0x1000, "stride_A": ^uint64(15)},
		"leaves memory": {"A": 1<<16 - 0x80, "stride_A": 16},
	} {
		base := map[string]uint64{
			"B": 0x2000, "C": 0x3000, "I": 1, "J": 1, "K": 1,
			"stride_B": 16, "stride_C": 16,
		}
		for k, v := range f {
			base[k] = v
		}
		dev := gemmini.New(gemmini.DefaultCost())
		writeFields(dev, base)
		if _, err := dev.Launch(mm); err == nil || !strings.Contains(err.Error(), "bad configuration") {
			t.Errorf("%s: err = %v, want a bad-configuration error", name, err)
		}
	}
}
