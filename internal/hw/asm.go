package hw

import (
	"fmt"

	"github.com/tyche-sim/tyche/internal/phys"
)

// Asm builds programs for the simulated ISA with label-based control
// flow. Jump targets are absolute physical addresses resolved at
// Assemble time against the program's load address, so the same source
// can be placed anywhere in physical memory (the address-reuse property
// Tyche-enclaves rely on, §4.2).
type Asm struct {
	instrs []Instr
	labels map[string]int // label -> instruction index
	fixups map[int]string // instruction index -> label for Imm
	errs   []error
}

// NewAsm returns an empty program builder.
func NewAsm() *Asm {
	return &Asm{labels: make(map[string]int), fixups: make(map[int]string)}
}

func (a *Asm) emit(i Instr) *Asm {
	a.instrs = append(a.instrs, i)
	return a
}

// Label defines name at the current position. Redefinition is an error
// reported by Assemble.
func (a *Asm) Label(name string) *Asm {
	if _, dup := a.labels[name]; dup {
		a.errs = append(a.errs, fmt.Errorf("hw: duplicate label %q", name))
		return a
	}
	a.labels[name] = len(a.instrs)
	return a
}

// Hlt emits a halt.
func (a *Asm) Hlt() *Asm { return a.emit(Instr{Op: OpHlt}) }

// Nop emits a no-op.
func (a *Asm) Nop() *Asm { return a.emit(Instr{Op: OpNop}) }

// Movi emits rd = imm.
func (a *Asm) Movi(rd int, imm uint32) *Asm {
	return a.emit(Instr{Op: OpMovi, Rd: uint8(rd), Imm: imm})
}

// Mov emits rd = rs1.
func (a *Asm) Mov(rd, rs1 int) *Asm {
	return a.emit(Instr{Op: OpMov, Rd: uint8(rd), Rs1: uint8(rs1)})
}

// Add emits rd = rs1 + rs2.
func (a *Asm) Add(rd, rs1, rs2 int) *Asm {
	return a.emit(Instr{Op: OpAdd, Rd: uint8(rd), Rs1: uint8(rs1), Rs2: uint8(rs2)})
}

// Sub emits rd = rs1 - rs2.
func (a *Asm) Sub(rd, rs1, rs2 int) *Asm {
	return a.emit(Instr{Op: OpSub, Rd: uint8(rd), Rs1: uint8(rs1), Rs2: uint8(rs2)})
}

// Mul emits rd = rs1 * rs2.
func (a *Asm) Mul(rd, rs1, rs2 int) *Asm {
	return a.emit(Instr{Op: OpMul, Rd: uint8(rd), Rs1: uint8(rs1), Rs2: uint8(rs2)})
}

// And emits rd = rs1 & rs2.
func (a *Asm) And(rd, rs1, rs2 int) *Asm {
	return a.emit(Instr{Op: OpAnd, Rd: uint8(rd), Rs1: uint8(rs1), Rs2: uint8(rs2)})
}

// Or emits rd = rs1 | rs2.
func (a *Asm) Or(rd, rs1, rs2 int) *Asm {
	return a.emit(Instr{Op: OpOr, Rd: uint8(rd), Rs1: uint8(rs1), Rs2: uint8(rs2)})
}

// Xor emits rd = rs1 ^ rs2.
func (a *Asm) Xor(rd, rs1, rs2 int) *Asm {
	return a.emit(Instr{Op: OpXor, Rd: uint8(rd), Rs1: uint8(rs1), Rs2: uint8(rs2)})
}

// Shl emits rd = rs1 << rs2.
func (a *Asm) Shl(rd, rs1, rs2 int) *Asm {
	return a.emit(Instr{Op: OpShl, Rd: uint8(rd), Rs1: uint8(rs1), Rs2: uint8(rs2)})
}

// Shr emits rd = rs1 >> rs2.
func (a *Asm) Shr(rd, rs1, rs2 int) *Asm {
	return a.emit(Instr{Op: OpShr, Rd: uint8(rd), Rs1: uint8(rs1), Rs2: uint8(rs2)})
}

// Addi emits rd = rs1 + imm.
func (a *Asm) Addi(rd, rs1 int, imm uint32) *Asm {
	return a.emit(Instr{Op: OpAddi, Rd: uint8(rd), Rs1: uint8(rs1), Imm: imm})
}

// Ld emits rd = mem64[rs1+imm].
func (a *Asm) Ld(rd, rs1 int, imm uint32) *Asm {
	return a.emit(Instr{Op: OpLd, Rd: uint8(rd), Rs1: uint8(rs1), Imm: imm})
}

// St emits mem64[rs1+imm] = rs2.
func (a *Asm) St(rs1 int, imm uint32, rs2 int) *Asm {
	return a.emit(Instr{Op: OpSt, Rs1: uint8(rs1), Rs2: uint8(rs2), Imm: imm})
}

// Ldb emits rd = mem8[rs1+imm].
func (a *Asm) Ldb(rd, rs1 int, imm uint32) *Asm {
	return a.emit(Instr{Op: OpLdb, Rd: uint8(rd), Rs1: uint8(rs1), Imm: imm})
}

// Stb emits mem8[rs1+imm] = rs2.
func (a *Asm) Stb(rs1 int, imm uint32, rs2 int) *Asm {
	return a.emit(Instr{Op: OpStb, Rs1: uint8(rs1), Rs2: uint8(rs2), Imm: imm})
}

// Jmp emits an unconditional jump to label.
func (a *Asm) Jmp(label string) *Asm {
	a.fixups[len(a.instrs)] = label
	return a.emit(Instr{Op: OpJmp})
}

// Jz emits a jump to label when rs1 == 0.
func (a *Asm) Jz(rs1 int, label string) *Asm {
	a.fixups[len(a.instrs)] = label
	return a.emit(Instr{Op: OpJz, Rs1: uint8(rs1)})
}

// Jnz emits a jump to label when rs1 != 0.
func (a *Asm) Jnz(rs1 int, label string) *Asm {
	a.fixups[len(a.instrs)] = label
	return a.emit(Instr{Op: OpJnz, Rs1: uint8(rs1)})
}

// Jlt emits a jump to label when rs1 < rs2 (unsigned).
func (a *Asm) Jlt(rs1, rs2 int, label string) *Asm {
	a.fixups[len(a.instrs)] = label
	return a.emit(Instr{Op: OpJlt, Rs1: uint8(rs1), Rs2: uint8(rs2)})
}

// Vmcall emits a trap to the isolation monitor.
func (a *Asm) Vmcall() *Asm { return a.emit(Instr{Op: OpVmcall}) }

// Syscall emits a trap to the domain's kernel.
func (a *Asm) Syscall() *Asm { return a.emit(Instr{Op: OpSyscall}) }

// Vmfunc emits a fast view switch to the pre-registered context
// selected by r14 (a guest instruction — no monitor exit). The next
// instruction must be executable in the target view: callers place
// VMFUNC on a trampoline page mapped in both domains.
func (a *Asm) Vmfunc() *Asm { return a.emit(Instr{Op: OpVmfunc}) }

// Assemble resolves labels against load address base and returns the
// encoded program bytes.
func (a *Asm) Assemble(base phys.Addr) ([]byte, error) {
	if len(a.errs) > 0 {
		return nil, a.errs[0]
	}
	out := make([]byte, 0, len(a.instrs)*InstrSize)
	for idx, ins := range a.instrs {
		if label, ok := a.fixups[idx]; ok {
			tgt, ok := a.labels[label]
			if !ok {
				return nil, fmt.Errorf("hw: undefined label %q", label)
			}
			addr := uint64(base) + uint64(tgt)*InstrSize
			if addr > 0xffffffff {
				return nil, fmt.Errorf("hw: label %q resolves to %#x, beyond imm32", label, addr)
			}
			ins.Imm = uint32(addr)
		}
		out = ins.EncodeTo(out)
	}
	return out, nil
}

// MustAssemble is Assemble, panicking on error; for tests and examples
// with hand-written, known-good programs.
func (a *Asm) MustAssemble(base phys.Addr) []byte {
	b, err := a.Assemble(base)
	if err != nil {
		panic(err)
	}
	return b
}
