// Package faultsim performs gate-level single-event error injection on the
// arithmetic units, in the style of the Hamartia framework the paper uses
// (Section IV-A): for every input operand tuple, the output of a single
// randomly chosen gate or flip-flop is inverted, repeating until an
// injection corrupts the unit output (an "unmasked" error). The resulting
// output error patterns drive the Figure 10 severity analysis and the
// Figure 11 SDC-risk analysis.
package faultsim

import (
	"context"
	"math/bits"
	"math/rand"

	"swapcodes/internal/arith"
	"swapcodes/internal/ecc"
	"swapcodes/internal/gates"
)

// Injection records one unmasked single-event error.
type Injection struct {
	// Ops are the operand values in effect.
	Ops []uint64
	// Golden is the fault-free output.
	Golden uint64
	// Faulty is the corrupted output.
	Faulty uint64
	// Site is the netlist node whose output was inverted.
	Site int
	// IsFF reports whether the site was a pipeline flip-flop.
	IsFF bool
	// Attempts counts injections tried for this tuple before one unmasked
	// (the masking rate is Attempts-1 masked events per unmasked one).
	Attempts int
}

// ErrorBits returns the number of corrupted output bits.
func (in Injection) ErrorBits() int {
	return bits.OnesCount64(in.Golden ^ in.Faulty)
}

// Severity buckets error patterns in increasing order of error-coding
// difficulty, as in Figure 10.
type Severity int

// Severity levels. With a SEC-DED register file, SwapCodes guarantees
// detection up to FourPlus, which is the only bucket with SDC risk.
const (
	OneBit Severity = iota
	TwoToThreeBits
	FourPlusBits
)

// String implements fmt.Stringer.
func (s Severity) String() string {
	switch s {
	case OneBit:
		return "1 bit"
	case TwoToThreeBits:
		return "2-3 bits"
	default:
		return ">=4 bits"
	}
}

// SeverityOf classifies an unmasked injection.
func (in Injection) SeverityOf() Severity {
	switch n := in.ErrorBits(); {
	case n <= 1:
		return OneBit
	case n <= 3:
		return TwoToThreeBits
	default:
		return FourPlusBits
	}
}

// Campaign injects single-event errors into one unit over a stream of
// operand tuples. By default it runs on the incremental cone evaluator
// (gates.ConeEvaluator): tuples are packed 64 per lane batch, one
// fault-free baseline pass snapshots the batch, and every injection attempt
// re-evaluates only the nodes of the drawn site's fan-out cone that its
// fault actually changes — at most O(cone) instead of O(netlist) per
// attempt. The site draw sequence is untouched, so the injection stream is
// bit-identical to the naive whole-netlist evaluator (asserted by the
// equivalence tests against FullEval).
type Campaign struct {
	Unit *arith.Unit
	// MaxAttempts bounds the per-tuple search for an unmasked site
	// (tuples whose every sampled site masks are dropped, matching the
	// paper's "inject ... until one corrupts the unit output").
	MaxAttempts int
	// FullEval forces the naive evaluator that re-evaluates the whole
	// netlist on every attempt. Results are identical; the flag exists for
	// the incremental-vs-full equivalence tests and timing comparisons.
	FullEval bool

	ev     *gates.Evaluator     // naive path, created on first FullEval run
	cev    *gates.ConeEvaluator // incremental path, created on first run
	sites  []int
	rng    *rand.Rand
	tuples int64
	full   int64 // whole-netlist evaluations performed on the naive path
}

// NewCampaign prepares an injection campaign with a deterministic seed.
func NewCampaign(u *arith.Unit, seed int64) *Campaign {
	return NewCampaignRNG(u, rand.New(rand.NewSource(seed)))
}

// NewCampaignRNG prepares a campaign drawing sites from an injected random
// source. The campaign owns rng from here on: campaigns never touch the
// package-global math/rand source, so concurrent campaigns with private
// rngs are race-free and individually reproducible.
func NewCampaignRNG(u *arith.Unit, rng *rand.Rand) *Campaign {
	return &Campaign{
		Unit:        u,
		MaxAttempts: 400,
		sites:       u.Circuit.FaultSites(),
		rng:         rng,
	}
}

// EvalStats reports the evaluator work a campaign has performed, the basis
// of the obs cone counters and the throughput accounting in the harness.
type EvalStats struct {
	// NetNodes is the unit's netlist node count.
	NetNodes int
	// Tuples is the number of operand tuples processed.
	Tuples int64
	gates.EvalCounters
}

// ReEvalFrac is the fraction of a full per-attempt netlist evaluation a
// static-cone sweep of the drawn sites pays: ConeNodes / (SiteEvals ×
// NetNodes). The event-driven evaluator pays at most this. The naive
// FullEval path reports 1.
func (s EvalStats) ReEvalFrac() float64 {
	if s.SiteEvals == 0 || s.NetNodes == 0 {
		return 0
	}
	return float64(s.ConeNodes) / (float64(s.SiteEvals) * float64(s.NetNodes))
}

// Merge pools two stat sets (NetNodes must agree or one be zero).
func (s EvalStats) Merge(o EvalStats) EvalStats {
	if s.NetNodes == 0 {
		s.NetNodes = o.NetNodes
	}
	s.Tuples += o.Tuples
	s.BaselineNodes += o.BaselineNodes
	s.ConeNodes += o.ConeNodes
	s.SiteEvals += o.SiteEvals
	return s
}

// Stats returns the campaign's cumulative evaluator work counters.
func (c *Campaign) Stats() EvalStats {
	st := EvalStats{NetNodes: c.Unit.Circuit.NumNodes(), Tuples: c.tuples}
	if c.cev != nil {
		st.EvalCounters = c.cev.Counters()
	}
	// Fold in naive whole-netlist evaluations so FullEval campaigns report
	// ReEvalFrac()==1 against the same denominator.
	st.ConeNodes += c.full * int64(st.NetNodes)
	st.SiteEvals += c.full
	return st
}

// Run performs one unmasked injection per operand tuple, exactly as the
// paper describes: "for every input pair, we randomly inject single-event
// errors until one corrupts the unit output". Site draws are independent
// per tuple. Tuples that never yield an unmasked error within MaxAttempts
// draws are skipped.
func (c *Campaign) Run(tuples [][]uint64) []Injection {
	out, _ := c.RunContext(context.Background(), tuples)
	return out
}

// RunContext is Run with cancellation: the context is checked every 64
// tuples (one lane batch), and on cancellation the injections completed so
// far are returned together with the context's error (partial-result
// reporting).
func (c *Campaign) RunContext(ctx context.Context, tuples [][]uint64) ([]Injection, error) {
	if c.FullEval {
		return c.runFull(ctx, tuples)
	}
	if c.cev == nil {
		c.cev = gates.NewConeEvaluator(c.Unit.Circuit)
	}
	out := make([]Injection, 0, len(tuples))
	for lo := 0; lo < len(tuples); lo += 64 {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		hi := min(lo+64, len(tuples))
		batch := tuples[lo:hi]
		// One fault-free pass snapshots all 64 tuples of the batch; every
		// attempt below re-evaluates only what the drawn site's fault
		// changes and reads its own tuple's lane.
		c.cev.Baseline(c.Unit.PackOperands(batch))
		for lane, ops := range batch {
			golden := c.Unit.Ref(ops)
			for attempt := 1; attempt <= c.MaxAttempts; attempt++ {
				site := c.sites[c.rng.Intn(len(c.sites))]
				words := c.cev.EvalSite(site)
				faulty := c.Unit.UnpackOutput(words, lane)
				if faulty == golden {
					continue // masked for this tuple
				}
				out = append(out, Injection{
					Ops:      ops,
					Golden:   golden,
					Faulty:   faulty,
					Site:     site,
					IsFF:     c.Unit.Circuit.Kind(site) == gates.FF,
					Attempts: attempt,
				})
				break
			}
			c.tuples++
		}
	}
	return out, ctx.Err()
}

// runFull is the naive reference path: every attempt re-evaluates the whole
// netlist. The rng draw sequence and cancellation points match RunContext
// exactly, so the two paths produce identical Injection streams.
func (c *Campaign) runFull(ctx context.Context, tuples [][]uint64) ([]Injection, error) {
	if c.ev == nil {
		c.ev = gates.NewEvaluator(c.Unit.Circuit)
	}
	out := make([]Injection, 0, len(tuples))
	for ti, ops := range tuples {
		if ti&63 == 0 {
			if err := ctx.Err(); err != nil {
				return out, err
			}
		}
		in := c.Unit.PackOperands([][]uint64{ops})
		golden := c.Unit.Ref(ops)
		for attempt := 1; attempt <= c.MaxAttempts; attempt++ {
			site := c.sites[c.rng.Intn(len(c.sites))]
			words := c.ev.Eval(in, site)
			c.full++
			faulty := c.Unit.UnpackOutput(words, 0)
			if faulty == golden {
				continue // masked for this tuple
			}
			out = append(out, Injection{
				Ops:      ops,
				Golden:   golden,
				Faulty:   faulty,
				Site:     site,
				IsFF:     c.Unit.Circuit.Kind(site) == gates.FF,
				Attempts: attempt,
			})
			break
		}
		c.tuples++
	}
	return out, ctx.Err()
}

// SeverityHistogram tallies injections per Figure 10 bucket.
func SeverityHistogram(inj []Injection) map[Severity]int {
	h := make(map[Severity]int)
	for _, in := range inj {
		h[in.SeverityOf()]++
	}
	return h
}

// SDCRisk evaluates a register-file error code against the injections under
// the SwapCodes semantics: the corrupted result is stored as data while the
// check bits come from the error-free shadow computation. A 64-bit result
// occupies two 32-bit registers and counts as detected if EITHER register
// flags (Section IV-B). It returns the number of undetected (SDC) events
// and the total.
func SDCRisk(inj []Injection, code ecc.Code, outWidth int) (sdc, total int) {
	for _, in := range inj {
		total++
		if !detects(code, in.Golden, in.Faulty, outWidth) {
			sdc++
		}
	}
	return
}

func detects(code ecc.Code, golden, faulty uint64, outWidth int) bool {
	if outWidth <= 32 {
		return code.Detects(uint32(faulty), code.Encode(uint32(golden)))
	}
	lo := code.Detects(uint32(faulty), code.Encode(uint32(golden)))
	hi := code.Detects(uint32(faulty>>32), code.Encode(uint32(golden>>32)))
	return lo || hi
}
