package verify

// Static lints over emitted (post-pass, post-optimization) code. Each rule
// is a structural contract a protection pass must uphold no matter how the
// optimizer reorders or deletes code:
//
//	R1 shadow-pairing: every Swap-ECC shadow write is WAW-ordered after an
//	   identical (modulo flags) original to the same destination, with no
//	   read of the destination and no clobber of a source in between — the
//	   window where data and check bits disagree must be closed.
//	R2 shadow-space disjointness: SW-Dup / HW-Sig-SRIV registers stay inside
//	   the primary window or the shadow window; the spaces never overlap.
//	R3 reserved predicates: P5/P6 are pass-private — only compiler-inserted
//	   or checking code may write them, and only checking, compiler-
//	   inserted, or masked-access code may guard on them.
//	R4 control sanity: branch targets in bounds, conditional branches carry
//	   reconvergence points, and no path falls off the end of the code
//	   (Kernel.Validate).
//	R5 termination: every reachable block reaches an EXIT (or an
//	   unconditional trap).

import (
	"fmt"

	"swapcodes/internal/compiler"
	"swapcodes/internal/isa"
)

// Violation is one static-lint finding.
type Violation struct {
	Rule string // "R1".."R5"
	PC   int    // instruction index in the emitted code (-1 for kernel-wide)
	Msg  string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s pc=%d: %s", v.Rule, v.PC, v.Msg)
}

// LintError aggregates a kernel's lint findings.
type LintError struct {
	Kernel     string
	Violations []Violation
}

// Error implements error.
func (e *LintError) Error() string {
	s := fmt.Sprintf("verify: kernel %s: %d lint violation(s)", e.Kernel, len(e.Violations))
	for i, v := range e.Violations {
		if i == 8 {
			s += fmt.Sprintf("; ... and %d more", len(e.Violations)-i)
			break
		}
		s += "; " + v.String()
	}
	return s
}

// Lint checks the emitted code of kernel k produced by scheme s from an
// original program with origMaxReg as its highest register. A nil return
// means every applicable rule passed.
func Lint(k *isa.Kernel, s compiler.Scheme, origMaxReg int) error {
	var vs []Violation
	vs = append(vs, lintControl(k)...)
	vs = append(vs, lintReservedPreds(k)...)
	switch s {
	case compiler.SwapECC, compiler.SwapPredictAddSub, compiler.SwapPredictMAD,
		compiler.SwapPredictOtherFxP, compiler.SwapPredictFpAddSub, compiler.SwapPredictFpMAD:
		vs = append(vs, lintShadowPairs(k)...)
	case compiler.SWDup, compiler.SInRGSig:
		vs = append(vs, lintShadowSpace(k, origMaxReg)...)
	}
	if len(vs) == 0 {
		return nil
	}
	return &LintError{Kernel: k.Name, Violations: vs}
}

// reservedPredBase is the first pass-private predicate (P5 = inter-thread
// lane guard, P6 = checking compare result; compiler.predLane/predCheck).
const reservedPredBase = int8(5)

func lintReservedPreds(k *isa.Kernel) []Violation {
	var vs []Violation
	passOwned := func(c isa.Category) bool {
		return c == isa.CatChecking || c == isa.CatCompilerInserted
	}
	maskable := func(op isa.Opcode) bool {
		switch op {
		case isa.STG, isa.STS, isa.ATOM, isa.BRA, isa.BPT:
			return true
		}
		return false
	}
	for pc := range k.Code {
		in := &k.Code[pc]
		if (in.Op == isa.ISETP || in.Op == isa.FSETP) &&
			in.DstPred >= reservedPredBase && in.DstPred < isa.PT && !passOwned(in.Cat) {
			vs = append(vs, Violation{"R3", pc,
				fmt.Sprintf("%v (%v) writes reserved predicate P%d", in.Op, in.Cat, in.DstPred)})
		}
		if in.GuardPred >= reservedPredBase && in.GuardPred < isa.PT &&
			!passOwned(in.Cat) && !maskable(in.Op) {
			vs = append(vs, Violation{"R3", pc,
				fmt.Sprintf("%v (%v) guarded by reserved predicate P%d", in.Op, in.Cat, in.GuardPred)})
		}
	}
	return vs
}

// lintShadowPairs enforces R1 on Swap-ECC-family output: for every
// FlagShadow instruction, the nearest earlier write to its destination in
// the same basic block must exist, be the non-shadow original, and be
// identical modulo flags; and between the pair no instruction may read the
// destination (the check bits are stale there) or clobber one of the pair's
// sources (the shadow would encode a different value).
func lintShadowPairs(k *isa.Kernel) []Violation {
	var vs []Violation
	leaders := blockLeaderSet(k.Code)
	for pc := range k.Code {
		sh := &k.Code[pc]
		if sh.Flags&isa.FlagShadow == 0 {
			continue
		}
		if !sh.WritesReg() {
			vs = append(vs, Violation{"R1", pc, fmt.Sprintf("shadow %v writes no register", sh.Op)})
			continue
		}
		orig := -1
		if !leaders[pc] { // a shadow at a block leader has no in-block original
			for q := pc - 1; q >= 0; q-- {
				in := &k.Code[q]
				if in.WritesReg() && in.Dst == sh.Dst {
					orig = q
					break
				}
				if leaders[q] {
					break // q is the block's first instruction; stop here
				}
			}
		}
		if orig < 0 {
			vs = append(vs, Violation{"R1", pc,
				fmt.Sprintf("shadow write to r%d has no in-block original", sh.Dst)})
			continue
		}
		o := &k.Code[orig]
		if o.Flags&isa.FlagShadow != 0 {
			vs = append(vs, Violation{"R1", pc,
				fmt.Sprintf("nearest earlier write to r%d (pc=%d) is itself a shadow", sh.Dst, orig)})
			continue
		}
		if !sameModuloFlags(o, sh) {
			vs = append(vs, Violation{"R1", pc,
				fmt.Sprintf("shadow differs from its original at pc=%d beyond flags", orig)})
		}
		srcs := map[isa.Reg]bool{}
		for _, r := range instrSources(sh) {
			srcs[r] = true
		}
		for q := orig + 1; q < pc; q++ {
			mid := &k.Code[q]
			for _, r := range instrSources(mid) {
				if r == sh.Dst || (sh.Is64Dst() && r == sh.Dst+1) {
					vs = append(vs, Violation{"R1", q,
						fmt.Sprintf("r%d read between original (pc=%d) and shadow (pc=%d): stale check bits", r, orig, pc)})
				}
			}
			if mid.WritesReg() && srcs[mid.Dst] {
				vs = append(vs, Violation{"R1", q,
					fmt.Sprintf("pair source r%d clobbered between original (pc=%d) and shadow (pc=%d)", mid.Dst, orig, pc)})
			}
		}
	}
	return vs
}

func sameModuloFlags(a, b *isa.Instr) bool {
	x, y := *a, *b
	x.Flags, y.Flags = 0, 0
	return x == y
}

// lintShadowSpace enforces R2 on shadow-register-space schemes: every
// referenced register lies in the primary window [0, origMaxReg] or the
// shadow window [shadowBase, shadowBase+origMaxReg], where shadowBase is
// the passes' (origMaxReg+2)&^1 even base. Inter-pass temporaries sit at
// the bottom of the shadow window by the same formula.
func lintShadowSpace(k *isa.Kernel, origMaxReg int) []Violation {
	var vs []Violation
	shadowBase := (origMaxReg + 2) &^ 1
	inWindow := func(r isa.Reg) bool {
		if r == isa.RZ {
			return true
		}
		n := int(r)
		return n <= origMaxReg || (n >= shadowBase && n <= shadowBase+origMaxReg+1)
	}
	for pc := range k.Code {
		in := &k.Code[pc]
		if in.WritesReg() && !inWindow(in.Dst) {
			vs = append(vs, Violation{"R2", pc,
				fmt.Sprintf("destination r%d outside primary [0,%d] and shadow [%d,%d] windows",
					in.Dst, origMaxReg, shadowBase, shadowBase+origMaxReg+1)})
		}
		for _, r := range instrSources(in) {
			if !inWindow(r) {
				vs = append(vs, Violation{"R2", pc,
					fmt.Sprintf("source r%d outside primary [0,%d] and shadow [%d,%d] windows",
						r, origMaxReg, shadowBase, shadowBase+origMaxReg+1)})
			}
		}
	}
	return vs
}

// lintControl enforces R4 (via Kernel.Validate) and R5: build the CFG, walk
// forward from entry, and require every reachable block to reach a
// terminating block — one ending in an unconditional EXIT or BPT. Validate
// has already rejected every path off the end of the code: the last
// instruction is an unconditional EXIT, BPT or BRA, and branch targets are
// in bounds.
func lintControl(k *isa.Kernel) []Violation {
	if err := k.Validate(); err != nil {
		return []Violation{{"R4", -1, err.Error()}}
	}
	n := len(k.Code)
	leaders := blockLeaderSet(k.Code)
	var starts []int
	blockOf := make([]int, n)
	for pc := 0; pc < n; pc++ {
		if leaders[pc] {
			starts = append(starts, pc)
		}
	}
	ends := make([]int, len(starts))
	for bi, s := range starts {
		e := n
		if bi+1 < len(starts) {
			e = starts[bi+1]
		}
		ends[bi] = e
		for pc := s; pc < e; pc++ {
			blockOf[pc] = bi
		}
	}
	var vs []Violation
	succs := make([][]int, len(starts))
	terminal := make([]bool, len(starts))
	for bi := range starts {
		last := ends[bi] - 1
		in := &k.Code[last]
		switch {
		case in.Op == isa.EXIT && in.Unconditional():
			terminal[bi] = true
		case in.Op == isa.BPT && in.Unconditional():
			terminal[bi] = true
		case in.Op == isa.BRA:
			succs[bi] = append(succs[bi], blockOf[in.Imm])
			if !in.Unconditional() {
				succs[bi] = append(succs[bi], blockOf[ends[bi]])
			}
		default:
			// Guarded EXIT/BPT and every non-terminator fall through.
			succs[bi] = append(succs[bi], blockOf[ends[bi]])
		}
	}
	// Forward reachability from entry.
	reach := make([]bool, len(starts))
	stack := []int{0}
	reach[0] = true
	for len(stack) > 0 {
		bi := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range succs[bi] {
			if !reach[s] {
				reach[s] = true
				stack = append(stack, s)
			}
		}
	}
	// Backward reachability from terminal blocks: every reachable block must
	// be able to reach one.
	preds := make([][]int, len(starts))
	for bi, ss := range succs {
		for _, s := range ss {
			preds[s] = append(preds[s], bi)
		}
	}
	canExit := make([]bool, len(starts))
	for bi := range starts {
		if terminal[bi] {
			canExit[bi] = true
			stack = append(stack, bi)
		}
	}
	for len(stack) > 0 {
		bi := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range preds[bi] {
			if !canExit[p] {
				canExit[p] = true
				stack = append(stack, p)
			}
		}
	}
	for bi := range starts {
		if reach[bi] && !canExit[bi] {
			vs = append(vs, Violation{"R5", starts[bi],
				"reachable block cannot reach any EXIT (infinite-loop region)"})
		}
	}
	return vs
}

// blockLeaderSet mirrors the compiler's shared leader computation: entry,
// branch targets, and post-terminator PCs, sized len+1 for the end sentinel.
func blockLeaderSet(code []isa.Instr) []bool {
	leaders := make([]bool, len(code)+1)
	leaders[0] = true
	for pc := range code {
		in := &code[pc]
		if in.Op == isa.BRA && int(in.Imm) >= 0 && int(in.Imm) <= len(code) {
			leaders[in.Imm] = true
		}
		switch in.Op {
		case isa.BRA, isa.EXIT, isa.BPT, isa.BAR:
			leaders[pc+1] = true
		}
	}
	return leaders
}

// instrSources lists the distinct non-RZ register sources of an
// instruction, respecting immediates and 64-bit pair operands (the verify-
// side mirror of the compiler's operand model).
func instrSources(in *isa.Instr) []isa.Reg {
	var out []isa.Reg
	seen := map[isa.Reg]bool{isa.RZ: true}
	add := func(r isa.Reg, wide bool) {
		if !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
		if wide && !seen[r+1] {
			seen[r+1] = true
			out = append(out, r+1)
		}
	}
	for si, s := range in.Src {
		if si == 1 && in.HasImm {
			continue
		}
		wide := false
		switch in.Op {
		case isa.DADD, isa.DSUB, isa.DMUL:
			wide = si < 2
		case isa.DFMA:
			wide = true
		case isa.IMAD:
			wide = in.Wide && si == 2
		}
		add(s, wide)
	}
	return out
}
