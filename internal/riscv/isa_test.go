package riscv_test

import (
	"strings"
	"testing"

	"configwall/internal/riscv"
)

func TestAssemblerResolvesLabels(t *testing.T) {
	a := riscv.NewAssembler()
	a.Label("start")
	a.Emit(riscv.Instr{Op: riscv.ADDI, Rd: 5, Rs1: 0, Imm: 1})
	a.Emit(riscv.Instr{Op: riscv.BNE, Rs1: 5, Rs2: 0, Label: "end"})
	a.Emit(riscv.Instr{Op: riscv.JAL, Label: "start"})
	a.Label("end")
	a.Emit(riscv.Instr{Op: riscv.HALT})
	p, err := a.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if p.Targets[1] != 3 {
		t.Errorf("branch target = %d, want 3", p.Targets[1])
	}
	if p.Targets[2] != 0 {
		t.Errorf("jump target = %d, want 0", p.Targets[2])
	}
}

func TestAssemblerUndefinedLabel(t *testing.T) {
	a := riscv.NewAssembler()
	a.Emit(riscv.Instr{Op: riscv.JAL, Label: "nowhere"})
	if _, err := a.Finish(); err == nil {
		t.Error("expected error for undefined label")
	}
}

func TestFreshLabelsUnique(t *testing.T) {
	a := riscv.NewAssembler()
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		l := a.FreshLabel("x")
		if seen[l] {
			t.Fatalf("duplicate label %q", l)
		}
		seen[l] = true
	}
}

func TestDisassemble(t *testing.T) {
	a := riscv.NewAssembler()
	a.Label("loop")
	a.Emit(riscv.Instr{Op: riscv.LI, Rd: 7, Imm: 42})
	a.Emit(riscv.Instr{Op: riscv.CUSTOM, Funct7: 9, Rs1: 7, Rs2: 8})
	a.Emit(riscv.Instr{Op: riscv.CSRRW, Rs1: 7, Imm: 0x3c0})
	a.Emit(riscv.Instr{Op: riscv.BGE, Rs1: 7, Rs2: 8, Label: "loop"})
	p, err := a.Finish()
	if err != nil {
		t.Fatal(err)
	}
	asm := p.Disassemble()
	for _, want := range []string{"loop:", "li x7, 42", "custom.9 x7, x8", "csrrw x0, 0x3c0, x7", "bge x7, x8, loop"} {
		if !strings.Contains(asm, want) {
			t.Errorf("disassembly missing %q:\n%s", want, asm)
		}
	}
}

func TestCostModels(t *testing.T) {
	rocket := riscv.RocketCost()
	if got := rocket.Cycles(riscv.Instr{Op: riscv.ADD}); got != 3 {
		t.Errorf("rocket ADD = %d cycles, want 3", got)
	}
	if got := rocket.Cycles(riscv.Instr{Op: riscv.CUSTOM}); got != 6 {
		t.Errorf("rocket CUSTOM = %d cycles, want 6 (RoCC queue)", got)
	}
	snitch := riscv.SnitchCost()
	if got := snitch.Cycles(riscv.Instr{Op: riscv.ADD}); got != 1 {
		t.Errorf("snitch ADD = %d cycles, want 1", got)
	}
	if got := snitch.Cycles(riscv.Instr{Op: riscv.LD}); got != 2 {
		t.Errorf("snitch LD = %d cycles, want 2", got)
	}
	if got := snitch.Cycles(riscv.Instr{Op: riscv.DIVU}); got != 8 {
		t.Errorf("snitch DIVU = %d cycles, want 8", got)
	}
	flat := riscv.FlatCost{PerInstr: 5, ModelName: "flat5"}
	if flat.Cycles(riscv.Instr{Op: riscv.MUL}) != 5 || flat.Name() != "flat5" {
		t.Error("flat cost model misbehaves")
	}
}

func TestInstrStringForms(t *testing.T) {
	cases := []struct {
		in   riscv.Instr
		want string
	}{
		{riscv.Instr{Op: riscv.HALT}, "halt"},
		{riscv.Instr{Op: riscv.ADD, Rd: 1, Rs1: 2, Rs2: 3}, "add x1, x2, x3"},
		{riscv.Instr{Op: riscv.LD, Rd: 4, Rs1: 2, Imm: 16}, "ld x4, 16(x2)"},
		{riscv.Instr{Op: riscv.SD, Rs1: 2, Rs2: 9, Imm: 8}, "sd x9, 8(x2)"},
		{riscv.Instr{Op: riscv.SLLI, Rd: 4, Rs1: 4, Imm: 32}, "slli x4, x4, 32"},
		{riscv.Instr{Op: riscv.CSRRS, Rd: 6, Imm: 0x3cc}, "csrrs x6, 0x3cc, x0"},
	}
	for _, tc := range cases {
		if got := tc.in.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
}

// TestFinishRejectsUnlabeledControlFlow: a branch with no label used to
// slip through Finish with no Targets entry, and the simulator would
// silently jump to the map zero value (instruction 0) — the assembler now
// rejects the program outright, so the simulator never sees one.
func TestFinishRejectsUnlabeledControlFlow(t *testing.T) {
	for _, op := range []riscv.Opcode{riscv.BEQ, riscv.BNE, riscv.BLT, riscv.BGE, riscv.BLTU, riscv.BGEU, riscv.JAL} {
		a := riscv.NewAssembler()
		a.Emit(riscv.Instr{Op: op})
		a.Emit(riscv.Instr{Op: riscv.HALT})
		if _, err := a.Finish(); err == nil {
			t.Errorf("%s without a label must not assemble", op)
		}
	}
}
