package sim_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"configwall/internal/accel"
	"configwall/internal/mem"
	"configwall/internal/riscv"
	"configwall/internal/sim"
)

// There is one simulator engine, Machine.Run. The equivalence these tests
// pin is that a run is a function of the program, the registers, the memory
// and the device alone: a fresh Machine and a Machine reused after an
// aborted run — accelerator still busy, last job, counters and trace left
// behind — must agree on every observable. Each case also pins the values
// the RISC-V semantics and the timing model prescribe.

// dirtyProgram launches a long accelerator job and then spins until the
// instruction limit aborts it, so the machine is left mid-job.
func dirtyProgram(t *testing.T) *riscv.Program {
	t.Helper()
	return assemble(t, func(a *riscv.Assembler) {
		a.Emit(riscv.Instr{Op: riscv.LI, Rd: 5, Imm: 77})
		a.Emit(riscv.Instr{Op: riscv.CUSTOM, Funct7: 99, Class: riscv.ClassConfig})
		a.Label("spin")
		a.Emit(riscv.Instr{Op: riscv.SD, Rs1: 0, Rs2: 5, Imm: 0x300})
		a.Emit(riscv.Instr{Op: riscv.JAL, Label: "spin"})
	})
}

// dirtyMachine returns a Machine that has already run dirtyProgram, then
// re-armed with fresh memory, zeroed registers and the given device, as a
// caller reusing a pooled Machine would.
func dirtyMachine(t *testing.T, m *mem.Memory, cost riscv.CostModel, dev accel.Device) *sim.Machine {
	t.Helper()
	mc := sim.NewMachine(mem.New(1<<16), cost,
		&fakeDevice{scheme: accel.Sequential, busyCycles: 1 << 20, opsPerLaunch: 7})
	mc.RecordTrace = true
	mc.MaxInstrs = 9
	err := mc.Run(dirtyProgram(t))
	if err == nil || !strings.Contains(err.Error(), "instruction limit") {
		t.Fatalf("dirty run: want instruction-limit error, got %v", err)
	}
	if mc.Launches != 1 || mc.Now() >= 1<<20 {
		t.Fatalf("dirty run must leave the accelerator busy: launches=%d now=%d", mc.Launches, mc.Now())
	}
	mc.Mem = m
	mc.Device = dev
	mc.Regs = [riscv.NumRegs]int64{}
	mc.MaxInstrs = 0
	return mc
}

// runBoth executes the same program on a fresh Machine and on a reused one
// with identical fresh state (memory, device, registers) and asserts that
// every observable — error, registers, counters, memory image, and the
// recorded trace segment-for-segment — is identical. It returns the fresh
// machine and its error for further assertions.
func runBoth(t *testing.T, makeDev func() accel.Device, maxInstrs uint64, setup func(*sim.Machine), p *riscv.Program) (*sim.Machine, error) {
	t.Helper()
	cost := riscv.FlatCost{PerInstr: 2, ModelName: "unit2"}
	newDev := func() accel.Device {
		if makeDev == nil {
			return nil
		}
		return makeDev()
	}
	freshMem, reusedMem := mem.New(1<<16), mem.New(1<<16)
	fresh := sim.NewMachine(freshMem, cost, newDev())
	reused := dirtyMachine(t, reusedMem, cost, newDev())
	var errs [2]error
	for i, mc := range []*sim.Machine{fresh, reused} {
		mc.RecordTrace = true
		mc.MaxInstrs = maxInstrs
		if setup != nil {
			setup(mc)
		}
		errs[i] = mc.Run(p)
	}
	freshErr, reusedErr := errs[0], errs[1]
	if (freshErr == nil) != (reusedErr == nil) {
		t.Fatalf("runs disagree on failure: fresh=%v reused=%v", freshErr, reusedErr)
	}
	if freshErr != nil && freshErr.Error() != reusedErr.Error() {
		t.Errorf("error text differs:\nfresh:  %v\nreused: %v", freshErr, reusedErr)
	}
	if fresh.Counters != reused.Counters {
		t.Errorf("counters differ:\nfresh:  %+v\nreused: %+v", fresh.Counters, reused.Counters)
	}
	if fresh.Regs != reused.Regs {
		t.Errorf("registers differ:\nfresh:  %v\nreused: %v", fresh.Regs, reused.Regs)
	}
	if !reflect.DeepEqual(fresh.Trace, reused.Trace) {
		t.Errorf("traces differ:\nfresh:  %+v\nreused: %+v", fresh.Trace, reused.Trace)
	}
	size := uint64(freshMem.Size())
	freshImg, reusedImg := freshMem.Snapshot(0, size), reusedMem.Snapshot(0, size)
	for i := range freshImg {
		if freshImg[i] != reusedImg[i] {
			t.Errorf("memory differs at %#x: fresh %#02x reused %#02x", i, freshImg[i], reusedImg[i])
			break
		}
	}
	return fresh, freshErr
}

// wantRegs checks selected registers against their expected values.
func wantRegs(t *testing.T, mc *sim.Machine, want map[riscv.Reg]int64) {
	t.Helper()
	for r, v := range want {
		if mc.Regs[r] != v {
			t.Errorf("x%d = %d, want %d", r, mc.Regs[r], v)
		}
	}
}

// wantErr checks that err is non-nil and mentions substr.
func wantErr(t *testing.T, err error, substr string) {
	t.Helper()
	if err == nil || !strings.Contains(err.Error(), substr) {
		t.Errorf("error = %v, want one containing %q", err, substr)
	}
}

func TestEngineEquivalence(t *testing.T) {
	seqDev := func() accel.Device {
		return &fakeDevice{scheme: accel.Sequential, busyCycles: 37, opsPerLaunch: 64}
	}
	concDev := func() accel.Device {
		return &fakeDevice{scheme: accel.Concurrent, busyCycles: 41, opsPerLaunch: 16}
	}
	cases := []struct {
		name  string
		dev   func() accel.Device
		limit uint64
		build func(a *riscv.Assembler)
		check func(t *testing.T, mc *sim.Machine, err error)
	}{
		{name: "alu and memory block", build: func(a *riscv.Assembler) {
			a.Emit(riscv.Instr{Op: riscv.LI, Rd: 5, Imm: 21})
			a.Emit(riscv.Instr{Op: riscv.LI, Rd: 6, Imm: -3})
			a.Emit(riscv.Instr{Op: riscv.MUL, Rd: 7, Rs1: 5, Rs2: 6})
			a.Emit(riscv.Instr{Op: riscv.SUB, Rd: 8, Rs1: 7, Rs2: 5})
			a.Emit(riscv.Instr{Op: riscv.DIVU, Rd: 9, Rs1: 8, Rs2: 6})
			a.Emit(riscv.Instr{Op: riscv.REMU, Rd: 10, Rs1: 8, Rs2: 0}) // div by zero path
			a.Emit(riscv.Instr{Op: riscv.SLL, Rd: 11, Rs1: 5, Rs2: 6})
			a.Emit(riscv.Instr{Op: riscv.SRLI, Rd: 12, Rs1: 11, Imm: 3})
			a.Emit(riscv.Instr{Op: riscv.SLTIU, Rd: 13, Rs1: 6, Imm: 1})
			a.Emit(riscv.Instr{Op: riscv.LI, Rd: 14, Imm: 0x200})
			a.Emit(riscv.Instr{Op: riscv.SD, Rs1: 14, Rs2: 7, Imm: 8})
			a.Emit(riscv.Instr{Op: riscv.LW, Rd: 15, Rs1: 14, Imm: 8})
			a.Emit(riscv.Instr{Op: riscv.SB, Rs1: 14, Rs2: 5, Imm: 40})
			a.Emit(riscv.Instr{Op: riscv.LB, Rd: 16, Rs1: 14, Imm: 40})
		}, check: func(t *testing.T, mc *sim.Machine, err error) {
			if err != nil {
				t.Fatal(err)
			}
			x5 := int64(21)
			sll := x5 << 61 // shift amount is rs2 & 63 = -3 & 63
			wantRegs(t, mc, map[riscv.Reg]int64{
				7: -63, 8: -84,
				9:  0,   // unsigned: 2^64-84 < 2^64-3
				10: -84, // REMU by zero yields the dividend
				11: sll, 12: int64(uint64(sll) >> 3),
				13: 0, // unsigned -3 is not below 1
				15: -63, 16: 21,
			})
			if mc.HostInstrs != 14 || mc.Cycles != 28 {
				t.Errorf("instrs/cycles = %d/%d, want 14/28", mc.HostInstrs, mc.Cycles)
			}
		}},
		{name: "branch loop", build: func(a *riscv.Assembler) {
			a.Emit(riscv.Instr{Op: riscv.LI, Rd: 5, Imm: 0})
			a.Emit(riscv.Instr{Op: riscv.LI, Rd: 6, Imm: 57})
			a.Label("loop")
			a.Emit(riscv.Instr{Op: riscv.ADDI, Rd: 5, Rs1: 5, Imm: 1})
			a.Emit(riscv.Instr{Op: riscv.XORI, Rd: 7, Rs1: 5, Imm: 0x55})
			a.Emit(riscv.Instr{Op: riscv.BLT, Rs1: 5, Rs2: 6, Label: "loop"})
		}, check: func(t *testing.T, mc *sim.Machine, err error) {
			if err != nil {
				t.Fatal(err)
			}
			wantRegs(t, mc, map[riscv.Reg]int64{5: 57, 7: 57 ^ 0x55})
			if want := uint64(2 + 57*3); mc.HostInstrs != want || mc.Cycles != 2*want {
				t.Errorf("instrs/cycles = %d/%d, want %d/%d", mc.HostInstrs, mc.Cycles, want, 2*want)
			}
		}},
		{name: "branch into block interior", build: func(a *riscv.Assembler) {
			a.Emit(riscv.Instr{Op: riscv.LI, Rd: 5, Imm: 3})
			a.Emit(riscv.Instr{Op: riscv.JAL, Label: "mid"})
			a.Emit(riscv.Instr{Op: riscv.ADDI, Rd: 5, Rs1: 5, Imm: 100}) // skipped
			a.Label("mid")
			a.Emit(riscv.Instr{Op: riscv.ADDI, Rd: 5, Rs1: 5, Imm: 7})
			a.Emit(riscv.Instr{Op: riscv.ADDI, Rd: 6, Rs1: 5, Imm: 1})
		}, check: func(t *testing.T, mc *sim.Machine, err error) {
			if err != nil {
				t.Fatal(err)
			}
			wantRegs(t, mc, map[riscv.Reg]int64{5: 10, 6: 11})
			if mc.HostInstrs != 4 {
				t.Errorf("HostInstrs = %d, want 4 (the skipped ADDI must not run)", mc.HostInstrs)
			}
		}},
		{name: "sequential device stalls", dev: seqDev, build: func(a *riscv.Assembler) {
			a.Emit(riscv.Instr{Op: riscv.CUSTOM, Funct7: 1, Class: riscv.ClassConfig})
			a.Emit(riscv.Instr{Op: riscv.CUSTOM, Funct7: 99, Class: riscv.ClassConfig}) // launch
			a.Emit(riscv.Instr{Op: riscv.CUSTOM, Funct7: 2, Class: riscv.ClassConfig})  // stalls
			a.Emit(riscv.Instr{Op: riscv.CUSTOM, Funct7: 100, Class: riscv.ClassSync})  // fence
			a.Emit(riscv.Instr{Op: riscv.LI, Rd: 5, Imm: 9})
		}, check: func(t *testing.T, mc *sim.Machine, err error) {
			if err != nil {
				t.Fatal(err)
			}
			// Launch issues at 2 and ends 4+37 = 41; the next write waits
			// out the whole job.
			if mc.Launches != 1 || mc.StallCycles != 37 || mc.ConfigInstrs != 3 {
				t.Errorf("launches/stall/config = %d/%d/%d, want 1/37/3",
					mc.Launches, mc.StallCycles, mc.ConfigInstrs)
			}
			if mc.Cycles != 47 {
				t.Errorf("Cycles = %d, want 47", mc.Cycles)
			}
			wantRegs(t, mc, map[riscv.Reg]int64{5: 9})
		}},
		{name: "concurrent device and poll loop", dev: concDev, build: func(a *riscv.Assembler) {
			a.Emit(riscv.Instr{Op: riscv.CUSTOM, Funct7: 99, Class: riscv.ClassConfig})
			a.Emit(riscv.Instr{Op: riscv.CUSTOM, Funct7: 3, Class: riscv.ClassConfig}) // staged
			a.Label("poll")
			a.Emit(riscv.Instr{Op: riscv.CSRRS, Rd: 5, Imm: 0x3cc, Class: riscv.ClassSync})
			a.Emit(riscv.Instr{Op: riscv.BNE, Rs1: 5, Rs2: 0, Label: "poll", Class: riscv.ClassSync})
			a.Emit(riscv.Instr{Op: riscv.CSRRW, Rs1: 5, Imm: 0x3c1, Class: riscv.ClassConfig})
		}, check: func(t *testing.T, mc *sim.Machine, err error) {
			if err != nil {
				t.Fatal(err)
			}
			// Concurrent staging and polling never stall; the poll loop
			// spins until the job ends at 2+41 = 43.
			if mc.Launches != 1 || mc.StallCycles != 0 || mc.SyncCycles == 0 {
				t.Errorf("launches/stall/sync = %d/%d/%d, want 1/0/>0",
					mc.Launches, mc.StallCycles, mc.SyncCycles)
			}
			if mc.Cycles < 43 {
				t.Errorf("Cycles = %d, want >= 43 (poll must outlast the job)", mc.Cycles)
			}
			wantRegs(t, mc, map[riscv.Reg]int64{5: 0})
		}},
		{name: "back to back launches", dev: concDev, build: func(a *riscv.Assembler) {
			a.Emit(riscv.Instr{Op: riscv.CUSTOM, Funct7: 99, Class: riscv.ClassConfig})
			a.Emit(riscv.Instr{Op: riscv.CUSTOM, Funct7: 99, Class: riscv.ClassConfig}) // waits
		}, check: func(t *testing.T, mc *sim.Machine, err error) {
			if err != nil {
				t.Fatal(err)
			}
			// The second launch waits 43-2 = 41 cycles, then runs its own
			// 41-cycle job, which HALT drains: 43+2+41 = 86.
			if mc.Launches != 2 || mc.StallCycles != 41 || mc.Cycles != 86 {
				t.Errorf("launches/stall/cycles = %d/%d/%d, want 2/41/86",
					mc.Launches, mc.StallCycles, mc.Cycles)
			}
		}},
		{name: "instruction limit inside block", limit: 10, build: func(a *riscv.Assembler) {
			a.Label("forever")
			a.Emit(riscv.Instr{Op: riscv.ADDI, Rd: 5, Rs1: 5, Imm: 1})
			a.Emit(riscv.Instr{Op: riscv.ADDI, Rd: 6, Rs1: 6, Imm: 2})
			a.Emit(riscv.Instr{Op: riscv.ADDI, Rd: 7, Rs1: 7, Imm: 3})
			a.Emit(riscv.Instr{Op: riscv.JAL, Label: "forever"})
		}, check: func(t *testing.T, mc *sim.Machine, err error) {
			wantErr(t, err, "instruction limit 10")
			// Two full iterations plus the first two ADDIs of a third.
			if mc.HostInstrs != 10 {
				t.Errorf("HostInstrs = %d, want 10", mc.HostInstrs)
			}
			wantRegs(t, mc, map[riscv.Reg]int64{5: 3, 6: 6, 7: 6})
		}},
		{name: "limit exactly at block boundary", limit: 8, build: func(a *riscv.Assembler) {
			a.Label("forever")
			a.Emit(riscv.Instr{Op: riscv.ADDI, Rd: 5, Rs1: 5, Imm: 1})
			a.Emit(riscv.Instr{Op: riscv.JAL, Label: "forever"})
		}, check: func(t *testing.T, mc *sim.Machine, err error) {
			wantErr(t, err, "instruction limit 8")
			if mc.HostInstrs != 8 || mc.Cycles != 16 {
				t.Errorf("instrs/cycles = %d/%d, want 8/16", mc.HostInstrs, mc.Cycles)
			}
			wantRegs(t, mc, map[riscv.Reg]int64{5: 4})
		}},
		{name: "device op with no device errors", build: func(a *riscv.Assembler) {
			a.Emit(riscv.Instr{Op: riscv.LI, Rd: 5, Imm: 1})
			a.Emit(riscv.Instr{Op: riscv.CUSTOM, Funct7: 1, Class: riscv.ClassConfig})
		}, check: func(t *testing.T, mc *sim.Machine, err error) {
			wantErr(t, err, "no device attached")
			wantRegs(t, mc, map[riscv.Reg]int64{5: 1})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := assemble(t, tc.build)
			mc, err := runBoth(t, tc.dev, tc.limit, nil, p)
			tc.check(t, mc, err)
		})
	}
}

// TestEngineEquivalenceRunawayPC: a program without HALT must fail the
// same way on a fresh and a reused machine.
func TestEngineEquivalenceRunawayPC(t *testing.T) {
	a := riscv.NewAssembler()
	a.Emit(riscv.Instr{Op: riscv.ADDI, Rd: 5, Rs1: 5, Imm: 1})
	p, err := a.Finish()
	if err != nil {
		t.Fatal(err)
	}
	mc, err := runBoth(t, nil, 0, nil, p)
	wantErr(t, err, "pc 1 out of range")
	wantRegs(t, mc, map[riscv.Reg]int64{5: 1})
}

// TestFastEngineRegisterSetup: registers and memory set before Run (the
// calling convention: buffer bases, SP) must flow into the run, including
// on a reused machine whose previous run left other values behind.
func TestFastEngineRegisterSetup(t *testing.T) {
	p := assemble(t, func(a *riscv.Assembler) {
		a.Emit(riscv.Instr{Op: riscv.LD, Rd: 5, Rs1: riscv.A0, Imm: 0})
		a.Emit(riscv.Instr{Op: riscv.ADDI, Rd: 6, Rs1: 5, Imm: 1})
		a.Emit(riscv.Instr{Op: riscv.SD, Rs1: riscv.A0, Rs2: 6, Imm: 8})
	})
	mc, err := runBoth(t, nil, 0, func(mc *sim.Machine) {
		mc.Regs[riscv.A0] = 0x400
		mc.Mem.Write64(0x400, 41)
		mc.Mem.ResetCounters()
	}, p)
	if err != nil {
		t.Fatal(err)
	}
	if mc.Regs[6] != 42 {
		t.Errorf("x6 = %d, want 42", mc.Regs[6])
	}
	if got := mc.Mem.Read64(0x408); got != 42 {
		t.Errorf("mem[0x408] = %d, want 42", got)
	}
}

// TestEngineEquivalenceRandomPrograms runs seeded pseudo-random
// straight-line-plus-loop programs on a fresh and a reused machine — a
// cheap in-package differential smoke below the full irgen/difftest
// oracle.
func TestEngineEquivalenceRandomPrograms(t *testing.T) {
	ops := []riscv.Opcode{
		riscv.ADD, riscv.SUB, riscv.MUL, riscv.AND, riscv.OR, riscv.XOR,
		riscv.SLL, riscv.SRL, riscv.SLT, riscv.SLTU, riscv.ADDI, riscv.ANDI,
		riscv.ORI, riscv.XORI, riscv.SLLI, riscv.SRLI, riscv.SLTIU, riscv.LI,
		riscv.DIVU, riscv.REMU, riscv.NOP,
	}
	// xorshift keeps the test dependency-free and deterministic.
	rng := uint64(0x9e3779b97f4a7c15)
	next := func(n int) int {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return int(rng % uint64(n))
	}
	for prog := 0; prog < 25; prog++ {
		iters := int64(2 + next(6))
		p := assemble(t, func(a *riscv.Assembler) {
			// Bounded loop scaffold around a random body.
			a.Emit(riscv.Instr{Op: riscv.LI, Rd: 28, Imm: iters})
			a.Label("top")
			for i := 0; i < 4+next(20); i++ {
				op := ops[next(len(ops))]
				a.Emit(riscv.Instr{
					Op:  op,
					Rd:  riscv.Reg(next(16)),
					Rs1: riscv.Reg(next(16)),
					Rs2: riscv.Reg(next(16)),
					Imm: int64(next(256) - 128),
				})
				if next(5) == 0 {
					base := riscv.Reg(29)
					a.Emit(riscv.Instr{Op: riscv.LI, Rd: base, Imm: int64(0x100 + 8*next(64))})
					a.Emit(riscv.Instr{Op: riscv.SD, Rs1: base, Rs2: riscv.Reg(next(16)), Imm: 0})
					a.Emit(riscv.Instr{Op: riscv.LD, Rd: riscv.Reg(next(16)), Rs1: base, Imm: 0})
				}
			}
			a.Emit(riscv.Instr{Op: riscv.ADDI, Rd: 28, Rs1: 28, Imm: -1})
			a.Emit(riscv.Instr{Op: riscv.BNE, Rs1: 28, Rs2: 0, Label: "top"})
		})
		t.Run(fmt.Sprintf("prog%02d", prog), func(t *testing.T) {
			mc, err := runBoth(t, nil, 0, nil, p)
			if err != nil {
				t.Fatal(err)
			}
			// Straight-line body, one loop: every instruction but the LI
			// and HALT runs once per iteration, at 2 cycles each.
			body := uint64(len(p.Instrs) - 2)
			if want := 1 + uint64(iters)*body; mc.HostInstrs != want || mc.Cycles != 2*want {
				t.Errorf("instrs/cycles = %d/%d, want %d/%d", mc.HostInstrs, mc.Cycles, want, 2*want)
			}
			if mc.Regs[0] != 0 {
				t.Errorf("x0 = %d, want 0", mc.Regs[0])
			}
		})
	}
}
