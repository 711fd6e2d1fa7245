package gates

import (
	"fmt"
	"math/bits"
)

// This file implements incremental single-site fault evaluation. A fault
// injected at one node can only disturb the node's fan-out cone, so an
// injection campaign that re-evaluates the whole netlist per attempt (as
// Evaluator.Eval does) wastes almost all of its work: the mean cone of the
// paper's arithmetic units is 2-31% of the netlist, and most faults are
// masked well inside it. The ConeEvaluator exploits both: one fault-free
// forward pass snapshots every node value, and each injected site then
// re-evaluates, event-driven, only the nodes its changed values reach,
// restoring them afterward so the snapshot is reusable across attempts.
//
// The fan-out adjacency (CSR form) and the static cone sizes (for the cone
// statistics and the re-evaluation accounting) are properties of the
// immutable Circuit, each built once behind a sync.Once, so concurrent
// evaluators over the same circuit (the sharded campaigns) share one copy.
// No per-site cone is ever stored.

// fanIn calls f for each input node of node i (0, 1, 2, or 3 calls).
func (c *Circuit) fanIn(i int, f func(in int32)) {
	switch c.kinds[i] {
	case Const0, Const1, Input:
	case Buf, Not, FF:
		f(c.in0[i])
	case Mux:
		f(c.in0[i])
		f(c.in1[i])
		f(c.in2[i])
	default: // And, Or, Xor, Nand, Nor, Xnor
		f(c.in0[i])
		f(c.in1[i])
	}
}

// ensureFanout builds the CSR fan-out adjacency exactly once per circuit.
func (c *Circuit) ensureFanout() {
	c.fanOnce.Do(func() {
		n := len(c.kinds)
		deg := make([]int32, n)
		for i := 0; i < n; i++ {
			c.fanIn(i, func(in int32) { deg[in]++ })
		}
		head := make([]int32, n+1)
		for i := 0; i < n; i++ {
			head[i+1] = head[i] + deg[i]
		}
		edge := make([]int32, head[n])
		pos := append([]int32(nil), head[:n]...)
		for i := 0; i < n; i++ {
			c.fanIn(i, func(in int32) {
				edge[pos[in]] = int32(i)
				pos[in]++
			})
		}
		c.fanHead, c.fanEdge = head, edge
	})
}

// coneSizes returns the static fan-out cone size of every node: the node
// itself plus every node that can depend on it. The sizes are computed once
// per circuit in one bit-parallel pass per block of 64 consecutive nodes.
// Each block node gets its own bit; a forward sweep ORs every node's fan-in
// masks into its own, so bit j of mask[i] says node i lies in the cone of
// block node j. The masks are summed lane-wise in vertical bit-plane
// counters (plane k holds bit k of all 64 counts). That is O(n²/64) word
// operations and O(n) memory.
func (c *Circuit) coneSizes() []int32 {
	c.sizeOnce.Do(func() {
		n := len(c.kinds)
		size := make([]int32, n)
		mask := make([]uint64, n)
		planes := make([]uint64, bits.Len(uint(n))) // every count is ≤ n
		for lo := 0; lo < n; lo += 64 {
			hi := min(lo+64, n)
			clear(planes)
			for i := lo; i < n; i++ {
				var m uint64
				if i < hi {
					m = 1 << uint(i-lo)
				}
				switch c.kinds[i] {
				case Const0, Const1, Input:
				case Buf, Not, FF:
					m |= mask[c.in0[i]]
				case Mux:
					m |= mask[c.in0[i]] | mask[c.in1[i]] | mask[c.in2[i]]
				default: // And, Or, Xor, Nand, Nor, Xnor
					m |= mask[c.in0[i]] | mask[c.in1[i]]
				}
				mask[i] = m
				for k := 0; m != 0; k++ { // ripple-carry add of m into the planes
					planes[k], m = planes[k]^m, planes[k]&m
				}
			}
			for j := lo; j < hi; j++ {
				var s int32
				for k, p := range planes {
					s |= int32(p>>uint(j-lo)&1) << uint(k)
				}
				size[j] = s
			}
			clear(mask[lo:hi]) // nodes below the next block are outside its cones
		}
		c.sizes = size
	})
	return c.sizes
}

// ConeStats aggregates cone sizes over every fault site of a circuit —
// the structural headroom of incremental fault evaluation.
type ConeStats struct {
	// Sites is the number of fault sites (gates + flip-flops).
	Sites int
	// NetNodes is the total netlist node count.
	NetNodes int
	// MeanCone and MaxCone are the average and largest cone node counts.
	MeanCone float64
	MaxCone  int
	// MeanFrac is MeanCone / NetNodes: the expected fraction of the
	// netlist a uniformly drawn injection can disturb.
	MeanFrac float64
}

// ConeStats computes cone-size statistics over the circuit's fault sites.
func (c *Circuit) ConeStats() ConeStats {
	size := c.coneSizes()
	st := ConeStats{NetNodes: len(c.kinds)}
	var total int64
	for _, site := range c.FaultSites() {
		st.Sites++
		total += int64(size[site])
		st.MaxCone = max(st.MaxCone, int(size[site]))
	}
	if st.Sites > 0 {
		st.MeanCone = float64(total) / float64(st.Sites)
		st.MeanFrac = st.MeanCone / float64(st.NetNodes)
	}
	return st
}

// EvalCounters tallies the work a ConeEvaluator has done, for throughput
// accounting: the re-eval fraction is ConeNodes / (SiteEvals × netlist
// nodes) — how much of a full per-attempt evaluation a static-cone sweep
// would pay.
type EvalCounters struct {
	// BaselineNodes counts nodes evaluated by fault-free Baseline passes.
	BaselineNodes int64
	// ConeNodes sums the static fan-out cone sizes of the EvalSite sites.
	// It counts the cone a fault could reach, not the (smaller) set of
	// nodes the event-driven sweep actually re-evaluated.
	ConeNodes int64
	// SiteEvals counts EvalSite calls.
	SiteEvals int64
}

// ConeEvaluator evaluates single-node faults incrementally against a
// fault-free snapshot. Usage: Baseline(inputs) once per input batch, then
// any number of EvalSite(site) calls; each re-evaluates only nodes the fault
// actually reaches and restores them, so the snapshot stays valid for the
// next site. Like Evaluator it is 64-lane bit-parallel and owns its scratch;
// it is not safe for concurrent use (share the Circuit, not the evaluator).
type ConeEvaluator struct {
	c        *Circuit
	size     []int32  // static cone sizes, shared with the circuit
	val      []uint64 // node values; equals the snapshot between EvalSite calls
	base     []uint64 // fault-free snapshot from Baseline
	baseOut  []uint64 // snapshot output words
	fout     []uint64 // faulty output scratch returned by EvalSite
	dirty    []uint64 // bitset of nodes with a changed fan-in, not yet evaluated
	changed  []int32  // nodes differing from the snapshot, in ascending order
	haveBase bool
	counters EvalCounters
}

// NewConeEvaluator returns an incremental evaluator for c.
func NewConeEvaluator(c *Circuit) *ConeEvaluator {
	c.ensureFanout()
	n := len(c.kinds)
	return &ConeEvaluator{
		c:       c,
		size:    c.coneSizes(),
		val:     make([]uint64, n),
		base:    make([]uint64, n),
		baseOut: make([]uint64, len(c.outputs)),
		fout:    make([]uint64, len(c.outputs)),
		dirty:   make([]uint64, (n+63)/64),
		changed: make([]int32, 0, n),
	}
}

// Counters returns the cumulative work counters.
func (e *ConeEvaluator) Counters() EvalCounters { return e.counters }

// Baseline runs the fault-free forward pass on 64 parallel input vectors
// and snapshots every node value. The returned slice (one word per primary
// output) aliases the evaluator's scratch and is valid until the next call.
func (e *ConeEvaluator) Baseline(inputs []uint64) []uint64 {
	c := e.c
	if len(inputs) != len(c.inputs) {
		panic(fmt.Sprintf("gates: %s: got %d inputs, want %d", c.name, len(inputs), len(c.inputs)))
	}
	val := e.val
	nextIn := 0
	for i, k := range c.kinds {
		var v uint64
		switch k {
		case Const0:
			v = 0
		case Const1:
			v = ^uint64(0)
		case Input:
			v = inputs[nextIn]
			nextIn++
		case Buf, FF:
			v = val[c.in0[i]]
		case Not:
			v = ^val[c.in0[i]]
		case And:
			v = val[c.in0[i]] & val[c.in1[i]]
		case Or:
			v = val[c.in0[i]] | val[c.in1[i]]
		case Xor:
			v = val[c.in0[i]] ^ val[c.in1[i]]
		case Nand:
			v = ^(val[c.in0[i]] & val[c.in1[i]])
		case Nor:
			v = ^(val[c.in0[i]] | val[c.in1[i]])
		case Xnor:
			v = ^(val[c.in0[i]] ^ val[c.in1[i]])
		case Mux:
			s := val[c.in0[i]]
			v = (val[c.in1[i]] &^ s) | (val[c.in2[i]] & s)
		}
		val[i] = v
	}
	copy(e.base, val)
	for j, o := range c.outputs {
		e.baseOut[j] = val[o]
	}
	e.haveBase = true
	e.counters.BaselineNodes += int64(len(c.kinds))
	return e.baseOut
}

// EvalSite returns the 64-lane outputs with node site's output inverted,
// evaluated event-driven against the last Baseline snapshot: starting from
// the inverted site, it re-evaluates in ascending (topological) index order
// only the nodes with a fan-in that differs from the snapshot, and spreads
// further only from nodes whose own value differs. It is identical
// bit-for-bit to Evaluator.Eval(inputs, site): a node whose fan-ins all hold
// their snapshot values has its snapshot value. The returned slice aliases
// scratch and is valid until the next EvalSite or Baseline. It does not
// allocate.
func (e *ConeEvaluator) EvalSite(site int) []uint64 {
	if !e.haveBase {
		panic("gates: EvalSite before Baseline")
	}
	c, val, base, dirty := e.c, e.val, e.base, e.dirty

	changed := e.changed[:0]
	dirty[site>>6] |= 1 << (uint(site) & 63)
	top := site >> 6 // highest word holding a dirty bit
	// Fan-outs always have higher indices than their fan-ins, so the scan
	// never needs to look back: a node is evaluated once, after all of its
	// changed fan-ins.
	for w := site >> 6; w <= top; w++ {
		for dirty[w] != 0 {
			b := bits.TrailingZeros64(dirty[w])
			dirty[w] &^= 1 << uint(b)
			i := w<<6 | b
			var v uint64
			if i == site {
				// Every node holds its snapshot value here, so the site's
				// fault-free value is base[site] whatever its kind.
				v = ^base[site]
			} else {
				switch c.kinds[i] {
				case Buf, FF:
					v = val[c.in0[i]]
				case Not:
					v = ^val[c.in0[i]]
				case And:
					v = val[c.in0[i]] & val[c.in1[i]]
				case Or:
					v = val[c.in0[i]] | val[c.in1[i]]
				case Xor:
					v = val[c.in0[i]] ^ val[c.in1[i]]
				case Nand:
					v = ^(val[c.in0[i]] & val[c.in1[i]])
				case Nor:
					v = ^(val[c.in0[i]] | val[c.in1[i]])
				case Xnor:
					v = ^(val[c.in0[i]] ^ val[c.in1[i]])
				case Mux:
					s := val[c.in0[i]]
					v = (val[c.in1[i]] &^ s) | (val[c.in2[i]] & s)
				}
				// Source kinds (Const/Input) have no fan-in and are never
				// dirty unless they are the site.
				if v == base[i] {
					continue // masked at this node
				}
			}
			val[i] = v
			changed = append(changed, int32(i))
			if fo := c.fanEdge[c.fanHead[i]:c.fanHead[i+1]]; len(fo) > 0 {
				for _, j := range fo {
					dirty[j>>6] |= 1 << (uint(j) & 63)
				}
				top = max(top, int(fo[len(fo)-1]>>6)) // fan-outs are ascending
			}
		}
	}

	for j, o := range c.outputs {
		e.fout[j] = val[o]
	}
	// Restore the snapshot so it is reusable for the next site.
	for _, i := range changed {
		val[i] = base[i]
	}
	e.changed = changed
	e.counters.ConeNodes += int64(e.size[site])
	e.counters.SiteEvals++
	return e.fout
}
