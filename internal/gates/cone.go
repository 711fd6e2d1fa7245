package gates

import (
	"fmt"
	"sort"
)

// This file implements incremental single-site fault evaluation. A fault
// injected at one node can only disturb the node's fan-out cone, so an
// injection campaign that re-evaluates the whole netlist per attempt (as
// Evaluator.Eval does) wastes almost all of its work: the mean cone of the
// paper's arithmetic units is 2-31% of the netlist. The ConeEvaluator
// exploits this: one fault-free forward pass snapshots every node value,
// and each injected site then re-evaluates only its topologically-sorted
// fan-out cone against the snapshot, restoring the touched nodes afterward
// so the snapshot is reusable across attempts.
//
// The fan-out adjacency (CSR form) and the per-site cones are properties of
// the immutable Circuit, built lazily and cached on it, so concurrent
// evaluators over the same circuit (the sharded campaigns) share one copy.
// Cones are stored as runs of consecutive node indices rather than node
// lists: pipelined arithmetic netlists emit whole downstream stages in
// index order, so runs compress the big units' cone sets ~14x (Fp-MAD64:
// ~100 MB of runs versus ~700 MB of explicit indices) and evaluate faster
// (sequential node access, no index indirection).

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

// ensureFanout builds the CSR fan-out adjacency and the node → output
// position index exactly once per circuit.
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
		c.outIdx = make([][]int32, n)
		for j, o := range c.outputs {
			c.outIdx[o] = append(c.outIdx[o], int32(j))
		}
	})
}

// Cone is the fan-out cone of one node: every node whose value can depend
// on it, in topological (ascending-index) order. The representation is a
// sorted list of half-open index runs; it is immutable once built.
type Cone struct {
	runs []int32 // (start, end) pairs, ascending, end exclusive
	outs []int32 // primary-output positions fed by the cone
	size int32   // total node count across runs
}

// Size returns the number of nodes in the cone.
func (k *Cone) Size() int { return int(k.size) }

// NumRuns returns the number of consecutive-index runs.
func (k *Cone) NumRuns() int { return len(k.runs) / 2 }

// Outputs returns the primary-output positions the cone feeds — the only
// outputs a fault at the site can corrupt. The slice is shared; do not
// modify it.
func (k *Cone) Outputs() []int32 { return k.outs }

// Nodes materializes the cone's node indices in topological order
// (ascending). Intended for tests and diagnostics; evaluation iterates the
// run representation directly.
func (k *Cone) Nodes() []int32 {
	out := make([]int32, 0, k.size)
	for r := 0; r < len(k.runs); r += 2 {
		for i := k.runs[r]; i < k.runs[r+1]; i++ {
			out = append(out, i)
		}
	}
	return out
}

// FanoutCone returns node site's fan-out cone. Cones are computed on first
// use and cached on the circuit, shared by every evaluator; the returned
// cone is immutable and must not be modified.
func (c *Circuit) FanoutCone(site int) *Cone {
	if site < 0 || site >= len(c.kinds) {
		panic(fmt.Sprintf("gates: %s: cone of node %d out of range", c.name, site))
	}
	c.ensureFanout()
	c.coneMu.RLock()
	if c.cones != nil {
		if k := c.cones[site]; k != nil {
			c.coneMu.RUnlock()
			return k
		}
	}
	c.coneMu.RUnlock()
	k := c.buildCone(site)
	c.coneMu.Lock()
	if c.cones == nil {
		c.cones = make([]*Cone, len(c.kinds))
	}
	if ex := c.cones[site]; ex != nil {
		k = ex // lost a benign race; keep the first build
	} else {
		c.cones[site] = k
	}
	c.coneMu.Unlock()
	return k
}

// coneScratch is reusable per-build working memory: an epoch-marked visited
// array (no O(netlist) clearing between builds) and the BFS stack. Pooled on
// the circuit because campaigns build thousands of cones back to back and a
// fresh visited array per build dominated cold-cache construction cost.
type coneScratch struct {
	mark  []int32
	epoch int32
	stack []int32
}

// buildCone marks the cone by BFS over the fan-out edges, then scans the
// marked index range once, emitting consecutive runs directly — no sort.
func (c *Circuit) buildCone(site int) *Cone {
	s, _ := c.conePool.Get().(*coneScratch)
	if s == nil {
		s = &coneScratch{mark: make([]int32, len(c.kinds))}
		for i := range s.mark {
			s.mark[i] = -1
		}
	}
	s.epoch++
	mark := s.mark
	mark[site] = s.epoch
	stack := append(s.stack[:0], int32(site))
	maxNode := int32(site)
	size := int32(0)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		size++
		if v > maxNode {
			maxNode = v
		}
		for _, w := range c.fanEdge[c.fanHead[v]:c.fanHead[v+1]] {
			if mark[w] != s.epoch {
				mark[w] = s.epoch
				stack = append(stack, w)
			}
		}
	}
	k := &Cone{size: size}
	for i := int32(site); i <= maxNode; i++ {
		if mark[i] != s.epoch {
			continue
		}
		if c.outIdx[i] != nil {
			k.outs = append(k.outs, c.outIdx[i]...)
		}
		if nr := len(k.runs); nr > 0 && k.runs[nr-1] == i {
			k.runs[nr-1] = i + 1
		} else {
			k.runs = append(k.runs, i, i+1)
		}
	}
	sort.Slice(k.outs, func(a, b int) bool { return k.outs[a] < k.outs[b] })
	s.stack = stack
	c.conePool.Put(s)
	return k
}

// ConeStats aggregates cone sizes over every fault site of a circuit —
// the structural headroom of incremental fault evaluation. It counts each
// cone without caching it, so it is safe to call on the largest units.
type ConeStats struct {
	// Sites is the number of fault sites (gates + flip-flops).
	Sites int
	// NetNodes is the total netlist node count.
	NetNodes int
	// MeanCone and MaxCone are the average and largest cone node counts.
	MeanCone float64
	MaxCone  int
	// MeanFrac is MeanCone / NetNodes: the expected fraction of the
	// netlist a uniformly drawn injection re-evaluates.
	MeanFrac float64
}

// ConeStats computes cone-size statistics over the circuit's fault sites.
func (c *Circuit) ConeStats() ConeStats {
	c.ensureFanout()
	n := len(c.kinds)
	st := ConeStats{NetNodes: n}
	mark := make([]int32, n)
	for i := range mark {
		mark[i] = -1
	}
	var stack []int32
	var total int64
	for _, site := range c.FaultSites() {
		epoch := int32(st.Sites)
		st.Sites++
		mark[site] = epoch
		stack = append(stack[:0], int32(site))
		cone := 0
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			cone++
			for _, w := range c.fanEdge[c.fanHead[v]:c.fanHead[v+1]] {
				if mark[w] != epoch {
					mark[w] = epoch
					stack = append(stack, w)
				}
			}
		}
		total += int64(cone)
		if cone > st.MaxCone {
			st.MaxCone = cone
		}
	}
	if st.Sites > 0 {
		st.MeanCone = float64(total) / float64(st.Sites)
		st.MeanFrac = st.MeanCone / float64(n)
	}
	return st
}

// EvalCounters tallies the work a ConeEvaluator has done, for throughput
// accounting: the re-eval fraction is ConeNodes / (SiteEvals × netlist
// nodes) — how much of a full per-attempt evaluation the cone path paid.
type EvalCounters struct {
	// BaselineNodes counts nodes evaluated by fault-free Baseline passes.
	BaselineNodes int64
	// ConeNodes counts nodes re-evaluated by EvalSite calls.
	ConeNodes int64
	// SiteEvals counts EvalSite calls.
	SiteEvals int64
}

// ConeEvaluator evaluates single-node faults incrementally against a
// fault-free snapshot. Usage: Baseline(inputs) once per input batch, then
// any number of EvalSite(site) calls; each re-evaluates only the site's
// fan-out cone and restores the touched nodes, so the snapshot stays valid
// for the next site. Like Evaluator it is 64-lane bit-parallel and owns its
// scratch; it is not safe for concurrent use (share the Circuit, not the
// evaluator).
type ConeEvaluator struct {
	c        *Circuit
	val      []uint64 // node values; equals the snapshot between EvalSite calls
	base     []uint64 // fault-free snapshot from Baseline
	baseOut  []uint64 // snapshot output words
	fout     []uint64 // faulty output scratch returned by EvalSite
	haveBase bool
	counters EvalCounters
}

// NewConeEvaluator returns an incremental evaluator for c.
func NewConeEvaluator(c *Circuit) *ConeEvaluator {
	c.ensureFanout()
	return &ConeEvaluator{
		c:       c,
		val:     make([]uint64, len(c.kinds)),
		base:    make([]uint64, len(c.kinds)),
		baseOut: make([]uint64, len(c.outputs)),
		fout:    make([]uint64, len(c.outputs)),
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
// re-evaluating only the site's fan-out cone against the last Baseline
// snapshot. It is identical bit-for-bit to Evaluator.Eval(inputs, site): a
// node outside the cone cannot depend on the site, so its snapshot value is
// its faulty value too. The returned slice aliases scratch and is valid
// until the next EvalSite or Baseline. It does not allocate.
func (e *ConeEvaluator) EvalSite(site int) []uint64 {
	if !e.haveBase {
		panic("gates: EvalSite before Baseline")
	}
	c := e.c
	cone := c.FanoutCone(site)
	val := e.val

	// The site is the cone's lowest node: evaluate it with the fault
	// inversion, then sweep the remaining runs without the per-node check.
	// A source-kind site (Input/Const) has no recomputable fan-in; its
	// fault-free value is the snapshot value.
	var v uint64
	switch c.kinds[site] {
	case Const0, Const1, Input:
		v = e.base[site]
	case Buf, FF:
		v = val[c.in0[site]]
	case Not:
		v = ^val[c.in0[site]]
	case And:
		v = val[c.in0[site]] & val[c.in1[site]]
	case Or:
		v = val[c.in0[site]] | val[c.in1[site]]
	case Xor:
		v = val[c.in0[site]] ^ val[c.in1[site]]
	case Nand:
		v = ^(val[c.in0[site]] & val[c.in1[site]])
	case Nor:
		v = ^(val[c.in0[site]] | val[c.in1[site]])
	case Xnor:
		v = ^(val[c.in0[site]] ^ val[c.in1[site]])
	case Mux:
		s := val[c.in0[site]]
		v = (val[c.in1[site]] &^ s) | (val[c.in2[site]] & s)
	}
	val[site] = ^v

	for r := 0; r < len(cone.runs); r += 2 {
		lo, hi := int(cone.runs[r]), int(cone.runs[r+1])
		if lo == site {
			lo++ // already evaluated (with the inversion) above
		}
		for i := lo; i < hi; i++ {
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
			default:
				// Source kinds (Const/Input) have no fan-in and cannot be
				// inside a cone; only the site itself, handled above.
				continue
			}
			val[i] = v
		}
	}

	copy(e.fout, e.baseOut)
	for _, oj := range cone.outs {
		e.fout[oj] = val[c.outputs[oj]]
	}
	// Restore the snapshot so it is reusable for the next site.
	for r := 0; r < len(cone.runs); r += 2 {
		lo, hi := cone.runs[r], cone.runs[r+1]
		copy(val[lo:hi], e.base[lo:hi])
	}
	e.counters.ConeNodes += int64(cone.size)
	e.counters.SiteEvals++
	return e.fout
}
