// Package jobs is the campaign-as-a-service layer: a persistent job server
// that accepts experiment specs over HTTP, runs them on the deterministic
// engine pool, streams progress, and survives restarts.
//
// Three properties of the underlying stack make the service cheap to get
// right:
//
//   - Determinism. Every job kind is a pure function of its spec: campaign
//     shards derive their randomness from engine.ShardSeed(master, shard)
//     and simulations are cycle-deterministic, so results are bit-identical
//     at any worker count — and across restarts.
//   - Shard granularity. A campaign decomposes into independent
//     (unit, shard) units of work (harness.InjectionPlan). The write-ahead
//     log checkpoints each completed shard, and a restarted server re-runs
//     only the missing ones; the merged stream equals an uninterrupted run
//     byte for byte.
//   - Content addressing. Expensive intermediates (operand traces, built
//     circuits) and final results are cached under keys
//     derived from the spec content, so resubmitting an identical spec is
//     near-free.
package jobs

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"swapcodes/internal/harness"
)

// Job kinds. The set mirrors the experiment surface of the CLIs.
const (
	// KindCampaign is the Figure 10/11 gate-level injection campaign:
	// trace operands, inject into all six units, tally severity and SDC
	// risk. The only kind with per-shard checkpointing.
	KindCampaign = "campaign"
	// KindPerf is a workload × scheme performance sweep (Figures 12/15/16).
	KindPerf = "perf"
	// KindHeadline recomputes the paper-vs-measured claim table.
	KindHeadline = "headline"
	// KindCPIStack is the perf sweep plus CPI-stack slowdown attribution.
	KindCPIStack = "cpistack"
	// KindVerify runs the differential verifier over the full combo matrix.
	KindVerify = "verify"
)

// Spec is a job submission, the JSON body of POST /jobs.
type Spec struct {
	Kind string `json:"kind"`
	// Tenant is the fairness key: the queue round-robins across tenants so
	// one chatty client cannot starve the rest. Empty means the default
	// tenant.
	Tenant string `json:"tenant,omitempty"`
	// Tuples is the per-unit operand tuple count for campaign/headline jobs
	// (default 10000, the paper's campaign size).
	Tuples int `json:"tuples,omitempty"`
	// Seed is the campaign master seed (default 1). Results are
	// bit-identical for a given seed at any worker count.
	Seed int64 `json:"seed,omitempty"`
	// Schemes selects the protection schemes of perf/cpistack jobs by CLI
	// name (default: the Figure 12 set).
	Schemes []string `json:"schemes,omitempty"`
	// SkipVerify disables functional output verification on perf sweeps.
	SkipVerify bool `json:"skip_verify,omitempty"`
	// SMWorkers sets the SM simulator's scheduler-worker count for
	// perf/cpistack sweeps (sm.Config.Workers). Results are bit-identical at
	// any value, so it is excluded from the cache key.
	SMWorkers int `json:"sm_workers,omitempty"`
	// MemModel selects the SM's memory timing model for perf/cpistack
	// sweeps (sm.Config.MemModel): "" or "off" is the flat-latency default,
	// "sectored" arms the L1/MSHR/L2/DRAM hierarchy. Unlike SMWorkers this
	// changes the numbers, so it is part of the cache key.
	MemModel string `json:"mem_model,omitempty"`
}

// Normalize validates the spec and fills defaults in place. Specs are
// normalized before hashing, so "campaign with default tuples" and
// "campaign with tuples: 10000" share one cache identity.
func (s *Spec) Normalize() error {
	switch s.Kind {
	case KindCampaign, KindHeadline:
		if s.Tuples == 0 {
			s.Tuples = 10000
		}
		if s.Tuples < 0 {
			return fmt.Errorf("jobs: tuples must be positive, got %d", s.Tuples)
		}
		if s.Seed == 0 {
			s.Seed = 1
		}
		if len(s.Schemes) > 0 {
			return fmt.Errorf("jobs: %s jobs take no schemes", s.Kind)
		}
		s.SMWorkers = 0 // fault campaigns pin the SM in-order regardless
		s.MemModel = "" // and run on the flat-latency timing path
	case KindPerf, KindCPIStack:
		if len(s.Schemes) == 0 {
			s.Schemes = []string{"sw-dup", "swap-ecc", "pre-addsub", "pre-mad"}
		}
		if _, err := harness.ParseSchemes(s.Schemes); err != nil {
			return err
		}
		if s.SMWorkers < 0 {
			return fmt.Errorf("jobs: sm_workers must be non-negative, got %d", s.SMWorkers)
		}
		switch s.MemModel {
		case "", "sectored":
		case "off":
			s.MemModel = "" // one cache identity for the flat-latency default
		default:
			return fmt.Errorf("jobs: unknown mem_model %q (want off or sectored)", s.MemModel)
		}
		s.Tuples, s.Seed = 0, 0
	case KindVerify:
		if len(s.Schemes) > 0 || s.Tuples != 0 {
			return fmt.Errorf("jobs: verify jobs take no schemes or tuples")
		}
		s.Seed = 0
		s.SMWorkers = 0
		s.MemModel = ""
	case "":
		return fmt.Errorf("jobs: spec missing kind")
	default:
		return fmt.Errorf("jobs: unknown kind %q (want %s, %s, %s, %s, or %s)",
			s.Kind, KindCampaign, KindPerf, KindHeadline, KindCPIStack, KindVerify)
	}
	return nil
}

// Key is the spec's content address: the hex SHA-256 of its canonical JSON
// with the tenant blanked, so identical work submitted by different tenants
// shares cache entries. Call after Normalize.
func (s Spec) Key() string {
	s.Tenant = ""
	s.SMWorkers = 0 // wall-clock knob only: any value yields identical results
	b, err := json.Marshal(s)
	if err != nil { // Spec has no unmarshalable fields; keep the compiler honest
		panic("jobs: marshal spec: " + err.Error())
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
