// Package arith generates gate-level netlists for the pipelined arithmetic
// units the paper injects errors into (Section IV-A): 32-bit fixed-point add
// and multiply-add, and 32/64-bit floating-point add and multiply-add. Each
// unit comes with an exact Go reference model implementing the same
// algorithm bit-for-bit, used to validate the netlist and to compute
// fault-free outputs cheaply.
//
// The floating-point units implement a conventional two-stage
// unpack/align/add/normalize architecture with truncation rounding and
// without subnormal or inf/NaN handling — faithful in *structure* (alignment
// and normalization shifters, LZC, carry chains, LSB buffers), which is what
// determines the output error patterns of Figure 10, though not bit-exact
// IEEE-754 arithmetic.
package arith

import "swapcodes/internal/gates"

// Unit couples a synthesized netlist with its reference model and metadata.
type Unit struct {
	// Name as reported in Figure 10 / Table IV, e.g. "FxP-MAD32".
	Name string
	// Class is "FxP" or "Fp".
	Class string
	// Circuit is the gate-level netlist. Primary inputs are operand bits,
	// LSB first, operands in order; primary outputs are result bits.
	Circuit *gates.Circuit
	// OperandWidths gives the operand bit widths in input order.
	OperandWidths []int
	// OutputWidth is the result width (32 or 64).
	OutputWidth int
	// Ref computes the fault-free result for scalar operands.
	Ref func(ops []uint64) uint64
}

// Units builds the full set of six units evaluated in Figure 10. Building
// the FP64 netlists takes a moment; callers that need one unit should use
// the individual constructors.
func Units() []*Unit {
	return []*Unit{
		NewIAdd32(),
		NewIMAD32(),
		NewFAdd32(),
		NewFFMA32(),
		NewFAdd64(),
		NewFFMA64(),
	}
}

// ConeStats summarizes the unit netlist's fan-out cone sizes over its
// fault sites — the structural headroom of incremental fault evaluation
// (small mean cone fraction ⇒ large campaign speedup). The per-node sizes
// behind it are memoized on the circuit, so repeated calls only re-sum them.
func (u *Unit) ConeStats() gates.ConeStats {
	return u.Circuit.ConeStats()
}

// PackOperands expands up to 64 operand tuples into the bit-lane input
// words the evaluator consumes: word w corresponds to operand-bit w across
// the unit's operands, and lane L of each word carries sample L's bit.
func (u *Unit) PackOperands(samples [][]uint64) []uint64 {
	total := 0
	for _, w := range u.OperandWidths {
		total += w
	}
	in := make([]uint64, total)
	for lane, ops := range samples {
		bit := 0
		for oi, w := range u.OperandWidths {
			v := ops[oi]
			for i := 0; i < w; i++ {
				if v&(1<<uint(i)) != 0 {
					in[bit] |= 1 << uint(lane)
				}
				bit++
			}
		}
	}
	return in
}

// UnpackOutput extracts lane L's result from evaluator output words.
func (u *Unit) UnpackOutput(out []uint64, lane int) uint64 {
	var v uint64
	for i := 0; i < u.OutputWidth; i++ {
		if out[i]&(1<<uint(lane)) != 0 {
			v |= 1 << uint(i)
		}
	}
	return v
}
