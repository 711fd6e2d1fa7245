// Package isa defines the SASS-like instruction set executed by the SM
// simulator: fixed-point and floating-point arithmetic (including the
// mixed-width wide IMAD of Section III-C), predication, SIMT control flow
// with explicit reconvergence points, global/shared memory, atomics, warp
// shuffles, and the 1-bit shadow-write metadata flag that Table II adds for
// Swap-ECC masked ECC write-back.
//
// Registers are 32 bits wide (the ECC word granularity); 64-bit values
// occupy aligned register pairs, exactly the property that motivates the
// paper's two-register residue recoding.
package isa

import "fmt"

// Reg names a 32-bit architectural register. RZ reads as zero and discards
// writes.
type Reg uint8

// RZ is the hardwired zero register.
const RZ Reg = 255

// String implements fmt.Stringer.
func (r Reg) String() string {
	if r == RZ {
		return "RZ"
	}
	return fmt.Sprintf("R%d", uint8(r))
}

// Pred names a predicate register. PT is hardwired true.
const (
	// NumPreds is the number of writable predicate registers per thread.
	NumPreds = 7
	// PT is the always-true predicate.
	PT int8 = 7
	// NoPred marks an unguarded instruction.
	NoPred int8 = -1
)

// Opcode enumerates instructions.
type Opcode uint8

// Instruction opcodes.
const (
	NOP Opcode = iota
	// Fixed point.
	IADD
	ISUB
	IMUL
	IMAD // optionally .WIDE: 32x32+64 -> 64 (register pair)
	AND
	OR
	XOR
	SHL
	SHR
	ISETP
	// 32-bit floating point.
	FADD
	FSUB
	FMUL
	FFMA
	FSETP
	// 64-bit floating point (register pairs).
	DADD
	DSUB
	DMUL
	DFMA
	// Special function unit.
	MUFU
	// Conversions.
	I2F
	F2I
	// Data movement.
	MOV
	S2R
	SHFL
	// Memory.
	LDG
	STG
	LDS
	STS
	ATOM
	// Control.
	BRA
	EXIT
	BPT
	// BAR is the CTA-wide barrier (__syncthreads).
	BAR
)

var opNames = map[Opcode]string{
	NOP: "NOP", IADD: "IADD", ISUB: "ISUB", IMUL: "IMUL", IMAD: "IMAD",
	AND: "AND", OR: "OR", XOR: "XOR", SHL: "SHL", SHR: "SHR", ISETP: "ISETP",
	FADD: "FADD", FSUB: "FSUB", FMUL: "FMUL", FFMA: "FFMA", FSETP: "FSETP",
	DADD: "DADD", DSUB: "DSUB", DMUL: "DMUL", DFMA: "DFMA", MUFU: "MUFU",
	I2F: "I2F", F2I: "F2I", MOV: "MOV", S2R: "S2R", SHFL: "SHFL",
	LDG: "LDG", STG: "STG", LDS: "LDS", STS: "STS", ATOM: "ATOM",
	BRA: "BRA", EXIT: "EXIT", BPT: "BPT", BAR: "BAR",
}

// String implements fmt.Stringer.
func (o Opcode) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("OP(%d)", uint8(o))
}

// Class groups opcodes by the execution pipe they occupy.
type Class uint8

// Execution pipe classes.
const (
	ClassFxP Class = iota
	ClassFP32
	ClassFP64
	ClassSFU
	ClassMove
	ClassMemGlobal
	ClassMemShared
	ClassControl
	ClassSpecial // S2R, SHFL
)

var classNames = [...]string{"FxP", "FP32", "FP64", "SFU", "Move", "GMem", "SMem", "Ctrl", "Spec"}

// String implements fmt.Stringer.
func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

// Class returns the pipe class of an opcode.
func (o Opcode) Class() Class {
	switch o {
	case IADD, ISUB, IMUL, IMAD, AND, OR, XOR, SHL, SHR, ISETP, I2F, F2I:
		return ClassFxP
	case FADD, FSUB, FMUL, FFMA, FSETP:
		return ClassFP32
	case DADD, DSUB, DMUL, DFMA:
		return ClassFP64
	case MUFU:
		return ClassSFU
	case MOV:
		return ClassMove
	case LDG, STG, ATOM:
		return ClassMemGlobal
	case LDS, STS:
		return ClassMemShared
	case BRA, EXIT, BPT, NOP, BAR:
		return ClassControl
	default:
		return ClassSpecial
	}
}

// DupEligible reports whether intra-thread duplication replicates this
// opcode: arithmetic, conversion, and move instructions are; memory,
// atomic, control-flow, predicate-setting, and cross-lane instructions are
// not (their register sources are checked instead, Section IV-A).
func (o Opcode) DupEligible() bool {
	switch o {
	case IADD, ISUB, IMUL, IMAD, AND, OR, XOR, SHL, SHR,
		FADD, FSUB, FMUL, FFMA, DADD, DSUB, DMUL, DFMA, MUFU, I2F, F2I, MOV:
		return true
	}
	return false
}

// Modifier refines an opcode: the comparison for SETP, the function for
// MUFU, the operation for ATOM.
type Modifier uint8

// Modifier values (grouped by the opcode they refine).
const (
	// ISETP / FSETP comparisons.
	CmpEQ Modifier = iota
	CmpNE
	CmpLT
	CmpLE
	CmpGT
	CmpGE
	// MUFU functions.
	FnRCP
	FnSQRT
	FnEX2
	FnLG2
	// ATOM operations.
	OpAdd
	OpMin
	OpMax
	OpExch
	OpCAS
)

// SpecialReg selects the S2R source.
type SpecialReg uint8

// Special registers.
const (
	SRTid SpecialReg = iota
	SRCtaid
	SRNTid // threads per CTA
	SRNCta // number of CTAs
	SRLane // lane within warp
	SRWarp // warp id within CTA
)

// Flags carry compiler-assigned metadata. FlagShadow is the Table II 1-bit
// ISA extension: the write-back stores only the ECC check bits.
type Flags uint8

// Flag bits.
const (
	// FlagShadow marks a Swap-ECC/Swap-Predict shadow instruction whose
	// write-back is masked to the ECC check bits only.
	FlagShadow Flags = 1 << iota
	// FlagPredicted marks an instruction whose check bits come from a
	// Swap-Predict prediction unit (no shadow needed).
	FlagPredicted
)

// Category classifies instructions for the Figure 13 dynamic-instruction
// breakdown. The compiler stamps every emitted instruction.
type Category uint8

// Figure 13 categories.
const (
	// CatNotEligible: loads, stores, atomics, control, and other
	// non-duplicated instructions.
	CatNotEligible Category = iota
	// CatPredicted: checked by a prediction unit, not duplicated.
	CatPredicted
	// CatDuplicated: original+shadow pairs (and SW-Dup shadow-space copies).
	CatDuplicated
	// CatCompilerInserted: scheduling NOPs/synchronization filler.
	CatCompilerInserted
	// CatChecking: explicit software checking instructions (ISETP/BRA/BPT
	// emitted by the SW-Dup and inter-thread passes).
	CatChecking
)

var catNames = [...]string{"NotEligible", "Predicted", "Duplicated", "CompilerInserted", "Checking"}

// String implements fmt.Stringer.
func (c Category) String() string {
	if int(c) < len(catNames) {
		return catNames[c]
	}
	return fmt.Sprintf("Cat(%d)", uint8(c))
}

// Instr is one machine instruction.
type Instr struct {
	Op  Opcode
	Mod Modifier
	// Dst is the destination register (pair base for Wide/FP64 results).
	Dst Reg
	// Src are source registers (pair bases where 64-bit).
	Src [3]Reg
	// Imm is the immediate: the second ALU operand when HasImm, the branch
	// target for BRA, the lane-XOR mask for SHFL, the address offset (in
	// words) for memory operations, the SpecialReg for S2R, and the raw
	// float bits for FP immediates.
	Imm    int32
	HasImm bool
	// GuardPred predicates execution (NoPred = unguarded); GuardNeg
	// inverts it.
	GuardPred int8
	GuardNeg  bool
	// DstPred receives the result of SETP instructions.
	DstPred int8
	// Wide marks the 32x32+64->64 form of IMAD.
	Wide bool
	// Reconv is the reconvergence PC for potentially divergent branches.
	Reconv int32
	// Flags and Cat are compiler metadata (Table II / Figure 13).
	Flags Flags
	Cat   Category
}

// Unconditional reports whether the guard is statically always true: the
// instruction is unguarded or guarded by PT. This is THE definition of
// "unconditional" shared by the interpreter (activeMask, branch resolution),
// the dead-code eliminator (kill sets, fall-through successors), and the
// kernel validator — a PT-guarded branch needs no reconvergence point
// precisely because every layer agrees it cannot diverge. GuardNeg is
// ignored for PT, matching the execution semantics (PT has no backing
// predicate-register bits to negate).
func (in *Instr) Unconditional() bool {
	return in.GuardPred == NoPred || in.GuardPred == PT
}

// Is64Dst reports whether the instruction writes a register pair.
func (in *Instr) Is64Dst() bool {
	switch in.Op {
	case DADD, DSUB, DMUL, DFMA:
		return true
	case IMAD:
		return in.Wide
	}
	return false
}

// WritesReg reports whether the instruction writes Dst at all.
func (in *Instr) WritesReg() bool {
	switch in.Op {
	case STG, STS, BRA, EXIT, BPT, NOP, BAR, ISETP, FSETP:
		return false
	}
	return in.Dst != RZ
}

// String disassembles the instruction.
func (in Instr) String() string {
	s := ""
	if in.GuardPred != NoPred && in.GuardPred != PT {
		neg := ""
		if in.GuardNeg {
			neg = "!"
		}
		s = fmt.Sprintf("@%sP%d ", neg, in.GuardPred)
	}
	s += in.Op.String()
	if in.Wide {
		s += ".WIDE"
	}
	if in.Flags&FlagShadow != 0 {
		s += ".SHDW"
	}
	switch in.Op {
	case BRA:
		return fmt.Sprintf("%s -> %d", s, in.Imm)
	case ISETP, FSETP:
		return fmt.Sprintf("%s P%d, %v, %v", s, in.DstPred, in.Src[0], in.operand1())
	case STG, STS:
		return fmt.Sprintf("%s [%v+%d], %v", s, in.Src[0], in.Imm, in.Src[1])
	case LDG, LDS:
		return fmt.Sprintf("%s %v, [%v+%d]", s, in.Dst, in.Src[0], in.Imm)
	case S2R:
		return fmt.Sprintf("%s %v, SR%d", s, in.Dst, in.Imm)
	default:
		return fmt.Sprintf("%s %v, %v, %v, %v", s, in.Dst, in.Src[0], in.operand1(), in.Src[2])
	}
}

func (in Instr) operand1() string {
	if in.HasImm {
		return fmt.Sprintf("#%d", in.Imm)
	}
	return in.Src[1].String()
}

// Kernel is a compiled device function plus its launch geometry.
type Kernel struct {
	Name string
	// Scheme names the protection scheme the kernel was compiled under
	// ("Baseline", "Swap-ECC", ...; empty for hand-built kernels launched
	// without a compiler pass). The simulator uses it to label metrics per
	// kernel x scheme; it has no execution semantics.
	Scheme string
	Code   []Instr
	// NumRegs is the architectural registers per thread (occupancy input).
	NumRegs int
	// GridCTAs and CTAThreads give the launch configuration.
	GridCTAs   int
	CTAThreads int
	// SharedWords is the shared memory per CTA, in 32-bit words.
	SharedWords int
}

// MaxCTAThreads is the hardware CTA size limit (inter-thread duplication
// fails when doubling exceeds it — the paper's matrix-multiply case).
const MaxCTAThreads = 1024

// WarpSize is the SIMT width.
const WarpSize = 32

// Validate performs structural checks: branch targets in range,
// reconvergence points set for conditional branches, register bounds, EXIT
// present.
func (k *Kernel) Validate() error {
	if k.CTAThreads <= 0 || k.CTAThreads > MaxCTAThreads {
		return fmt.Errorf("isa: kernel %s: CTA size %d out of range", k.Name, k.CTAThreads)
	}
	if k.GridCTAs <= 0 {
		return fmt.Errorf("isa: kernel %s: grid size %d", k.Name, k.GridCTAs)
	}
	sawExit := false
	for pc, in := range k.Code {
		if in.Op == EXIT {
			sawExit = true
		}
		if in.Op == BRA {
			if int(in.Imm) < 0 || int(in.Imm) >= len(k.Code) {
				return fmt.Errorf("isa: kernel %s: pc %d: branch target %d out of range", k.Name, pc, in.Imm)
			}
			if !in.Unconditional() {
				if int(in.Reconv) <= 0 || int(in.Reconv) > len(k.Code) {
					return fmt.Errorf("isa: kernel %s: pc %d: conditional branch without reconvergence point", k.Name, pc)
				}
			}
		}
		if in.Is64Dst() && in.Dst != RZ && int(in.Dst)+1 >= 255 {
			return fmt.Errorf("isa: kernel %s: pc %d: wide destination overflows register file", k.Name, pc)
		}
	}
	if !sawExit {
		return fmt.Errorf("isa: kernel %s: no EXIT", k.Name)
	}
	last := &k.Code[len(k.Code)-1]
	if !last.Unconditional() || (last.Op != EXIT && last.Op != BRA && last.Op != BPT) {
		return &FallThroughError{Kernel: k.Name, PC: len(k.Code) - 1, Op: last.Op}
	}
	return nil
}

// FallThroughError rejects a kernel whose last instruction can pass control
// beyond the end of the code: anything but an unconditional EXIT, BRA or BPT
// (a guarded EXIT, for instance, falls through on its guarded-off lanes).
type FallThroughError struct {
	Kernel string
	PC     int
	Op     Opcode
}

func (e *FallThroughError) Error() string {
	return fmt.Sprintf("isa: kernel %s: pc %d: last instruction %s can fall through past the end of the code",
		e.Kernel, e.PC, e.Op)
}

// UsesShuffle reports whether the kernel contains cross-lane SHFL
// instructions (disqualifying inter-thread duplication, Section V).
func (k *Kernel) UsesShuffle() bool {
	for _, in := range k.Code {
		if in.Op == SHFL {
			return true
		}
	}
	return false
}

// MaxReg returns the highest register index written or read (ignoring RZ).
func (k *Kernel) MaxReg() int {
	max := -1
	upd := func(r Reg, wide bool) {
		if r == RZ {
			return
		}
		n := int(r)
		if wide {
			n++
		}
		if n > max {
			max = n
		}
	}
	for i := range k.Code {
		in := &k.Code[i]
		upd(in.Dst, in.Is64Dst())
		for si, s := range in.Src {
			wide := false
			switch in.Op {
			case DADD, DSUB, DMUL, DFMA:
				wide = si < 2 || in.Op == DFMA
			case IMAD:
				wide = in.Wide && si == 2
			}
			if si == 1 && in.HasImm {
				continue
			}
			upd(s, wide)
		}
	}
	return max
}
