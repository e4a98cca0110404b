package hw

import (
	"encoding/binary"
	"fmt"
)

// The simulated cores execute a small deterministic RISC-style ISA.
// Domain code (workloads, enclave bodies, drivers) is compiled to it by
// the assembler in asm.go; kernels — the isolation monitor and the mini
// OS — are host Go code reached through traps, mirroring the real system
// where the monitor is reached via VMCall/ecall (§3.3).
//
// Encoding: fixed 8-byte words, little-endian:
//
//	byte 0   opcode
//	byte 1   rd
//	byte 2   rs1
//	byte 3   rs2
//	byte 4-7 imm32
//
// Code is ordinary bytes in physical memory, so it is subject to access
// control (execute permission) and measurable for attestation.

// InstrSize is the size of one encoded instruction in bytes.
const InstrSize = 8

// NumRegs is the number of general-purpose registers (r0..r15).
const NumRegs = 16

// Opcode identifies an instruction.
type Opcode uint8

// Instruction opcodes.
const (
	OpHlt     Opcode = iota // halt the core
	OpNop                   // no operation
	OpMovi                  // rd = imm
	OpMov                   // rd = rs1
	OpAdd                   // rd = rs1 + rs2
	OpSub                   // rd = rs1 - rs2
	OpMul                   // rd = rs1 * rs2
	OpAnd                   // rd = rs1 & rs2
	OpOr                    // rd = rs1 | rs2
	OpXor                   // rd = rs1 ^ rs2
	OpShl                   // rd = rs1 << (rs2 & 63)
	OpShr                   // rd = rs1 >> (rs2 & 63)
	OpAddi                  // rd = rs1 + imm
	OpLd                    // rd = mem64[rs1 + imm]
	OpSt                    // mem64[rs1 + imm] = rs2
	OpLdb                   // rd = mem8[rs1 + imm]
	OpStb                   // mem8[rs1 + imm] = rs2 & 0xff
	OpJmp                   // pc = imm
	OpJz                    // if rs1 == 0 { pc = imm }
	OpJnz                   // if rs1 != 0 { pc = imm }
	OpJlt                   // if rs1 < rs2 { pc = imm } (unsigned)
	OpVmcall                // trap to the isolation monitor (r0 = call number)
	OpSyscall               // trap to the domain's kernel (r0 = syscall number)
	OpVmfunc                // fast view switch: r14 selects a pre-registered context

	opMax // sentinel
)

var opNames = [...]string{
	OpHlt: "hlt", OpNop: "nop", OpMovi: "movi", OpMov: "mov",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpAnd: "and", OpOr: "or",
	OpXor: "xor", OpShl: "shl", OpShr: "shr", OpAddi: "addi",
	OpLd: "ld", OpSt: "st", OpLdb: "ldb", OpStb: "stb",
	OpJmp: "jmp", OpJz: "jz", OpJnz: "jnz", OpJlt: "jlt",
	OpVmcall: "vmcall", OpSyscall: "syscall", OpVmfunc: "vmfunc",
}

func (o Opcode) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Instr is one decoded instruction.
type Instr struct {
	Op           Opcode
	Rd, Rs1, Rs2 uint8
	Imm          uint32
}

// Valid reports whether the instruction decodes to a defined operation
// with in-range register operands.
func (i Instr) Valid() bool {
	return i.Op < opMax && i.Rd < NumRegs && i.Rs1 < NumRegs && i.Rs2 < NumRegs
}

// Encode writes the 8-byte encoding of i into buf.
func (i Instr) Encode(buf []byte) {
	_ = buf[7]
	buf[0] = uint8(i.Op)
	buf[1] = i.Rd
	buf[2] = i.Rs1
	buf[3] = i.Rs2
	binary.LittleEndian.PutUint32(buf[4:], i.Imm)
}

// EncodeTo appends the encoding of i to dst.
func (i Instr) EncodeTo(dst []byte) []byte {
	var b [InstrSize]byte
	i.Encode(b[:])
	return append(dst, b[:]...)
}

// decode unpacks an instruction word without validating it.
func decode(w [InstrSize]byte) Instr {
	return Instr{
		Op:  Opcode(w[0]),
		Rd:  w[1],
		Rs1: w[2],
		Rs2: w[3],
		Imm: binary.LittleEndian.Uint32(w[4:]),
	}
}

// Decode parses the 8-byte word in buf.
func Decode(buf []byte) (Instr, error) {
	if len(buf) < InstrSize {
		return Instr{}, fmt.Errorf("hw: short instruction fetch (%d bytes)", len(buf))
	}
	i := decode([InstrSize]byte(buf))
	if !i.Valid() {
		return i, fmt.Errorf("hw: illegal instruction %#x (op=%d rd=%d rs1=%d rs2=%d)",
			buf[:InstrSize], buf[0], buf[1], buf[2], buf[3])
	}
	return i, nil
}

func (i Instr) String() string {
	switch i.Op {
	case OpHlt, OpNop, OpVmcall, OpSyscall, OpVmfunc:
		return i.Op.String()
	case OpMovi:
		return fmt.Sprintf("movi r%d, %#x", i.Rd, i.Imm)
	case OpMov:
		return fmt.Sprintf("mov r%d, r%d", i.Rd, i.Rs1)
	case OpAddi:
		return fmt.Sprintf("addi r%d, r%d, %#x", i.Rd, i.Rs1, i.Imm)
	case OpLd, OpLdb:
		return fmt.Sprintf("%s r%d, [r%d+%#x]", i.Op, i.Rd, i.Rs1, i.Imm)
	case OpSt, OpStb:
		return fmt.Sprintf("%s [r%d+%#x], r%d", i.Op, i.Rs1, i.Imm, i.Rs2)
	case OpJmp:
		return fmt.Sprintf("jmp %#x", i.Imm)
	case OpJz, OpJnz:
		return fmt.Sprintf("%s r%d, %#x", i.Op, i.Rs1, i.Imm)
	case OpJlt:
		return fmt.Sprintf("jlt r%d, r%d, %#x", i.Rs1, i.Rs2, i.Imm)
	default:
		return fmt.Sprintf("%s r%d, r%d, r%d", i.Op, i.Rd, i.Rs1, i.Rs2)
	}
}
