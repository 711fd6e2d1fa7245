package harness

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"swapcodes/internal/arith"
	"swapcodes/internal/compiler"
	"swapcodes/internal/engine"
	"swapcodes/internal/obs/simprof"
	"swapcodes/internal/sm"
	"swapcodes/internal/trace"
	"swapcodes/internal/workloads"
)

// Session is one run of the evaluation: the engine pool every artifact's
// jobs execute on, the simulator Options, and a memo that computes each
// launch and each injection campaign the artifacts share exactly once
// (DESIGN.md §16). Create one per CLI run, per served job, or per facade
// call; nothing is cached across sessions. Methods are safe for concurrent
// use.
type Session struct {
	pool *engine.Pool
	opt  Options
	memo *memo
}

// NewSession returns a session with an empty memo.
func NewSession(pool *engine.Pool, opt Options) *Session {
	return &Session{pool: pool, opt: opt, memo: &memo{cells: make(map[any]*cell)}}
}

// WithMemModel returns a view of the session that launches under the given
// memory model (sm.Config.MemModel). The view shares the pool and the memo,
// whose launch key carries the memory model.
func (s *Session) WithMemModel(model string) *Session {
	v := *s
	v.opt.MemModel = model
	return &v
}

// memo holds a session's shared results. The first caller of a key computes
// it on its own goroutine and later callers wait; no producer needs a pool
// slot it could be waiting for (DESIGN.md §16).
type memo struct {
	mu    sync.Mutex
	cells map[any]*cell
	// launches and campaigns count computations, not memo hits.
	launches, campaigns atomic.Int64
}

type cell struct {
	done chan struct{}
	v    any
	err  error
}

// once returns the memoized result for key, computing it with fn when no
// caller has yet. A computation ended by its caller's cancelled context is
// forgotten, so the next caller computes it afresh.
func once[T any](ctx context.Context, m *memo, key any, fn func() (T, error)) (T, error) {
	m.mu.Lock()
	c, ok := m.cells[key]
	if !ok {
		c = &cell{done: make(chan struct{})}
		m.cells[key] = c
	}
	m.mu.Unlock()
	if !ok {
		v, err := fn()
		c.v, c.err = v, err
		if err != nil && ctx.Err() != nil {
			m.mu.Lock()
			delete(m.cells, key)
			m.mu.Unlock()
		}
		close(c.done)
		return v, err
	}
	select {
	case <-c.done:
		return c.v.(T), c.err
	case <-ctx.Done():
		var zero T
		return zero, ctx.Err()
	}
}

// launchKey identifies a memoized launch. SMWorkers is not part of it: the
// SM is bit-identical at any worker count.
type launchKey struct {
	workload string
	scheme   compiler.Scheme
	memModel string
}

// launched is one memoized launch: its Stats, or why the scheme does not
// apply to the workload (inter-thread on mm/snap) — a "fails" cell of the
// figures, not an error.
type launched struct {
	st       *sm.Stats
	applyErr error
}

// launch runs one workload under one scheme at most once per session,
// verifying its output when Options.Verify is set.
func (s *Session) launch(ctx context.Context, w *workloads.Workload, sc compiler.Scheme) (launched, error) {
	model := s.opt.MemModel
	if model == "off" {
		model = ""
	}
	return once(ctx, s.memo, launchKey{w.Name, sc, model}, func() (launched, error) {
		k, err := compiler.Apply(w.Kernel, sc)
		if err != nil {
			return launched{applyErr: err}, nil
		}
		s.memo.launches.Add(1)
		cfg := s.opt.smConfig()
		g := w.NewGPU(cfg)
		var fr *simprof.FlightRecorder
		if s.opt.FlightRecord {
			fr = simprof.NewFlightRecorder(0)
			fr.Annotate(w.Name, 0)
			g.Flight = fr
		}
		st, err := g.LaunchContext(ctx, k)
		if err != nil {
			return launched{}, flightWrap(fr, w.Name, sc, fmt.Errorf("harness: %s/%v: %w", w.Name, sc, err))
		}
		if s.opt.Verify {
			if err := w.Verify(g); err != nil {
				if fr != nil {
					// A differential mismatch is a failure the simulator
					// cannot see from inside; stamp the black box here.
					fr.Fail(k.Name, k.Scheme, s.opt.SMWorkers, st.Cycles, cfg,
						"output verification failed: "+err.Error())
				}
				return launched{}, flightWrap(fr, w.Name, sc, fmt.Errorf("harness: %s/%v: %w", w.Name, sc, err))
			}
		}
		s.pool.Tracker().AddItems(1)
		return launched{st: st}, nil
	})
}

// perfRow gathers one workload's launches: baseline plus each scheme.
func (s *Session) perfRow(ctx context.Context, w *workloads.Workload, schemes []compiler.Scheme) (*PerfRow, error) {
	row := &PerfRow{Workload: w.Name,
		Stats: make(map[compiler.Scheme]*sm.Stats),
		Errs:  make(map[compiler.Scheme]string)}
	for _, sc := range append([]compiler.Scheme{compiler.Baseline}, schemes...) {
		l, err := s.launch(ctx, w, sc)
		switch {
		case err != nil:
			return nil, err
		case l.applyErr != nil:
			row.Errs[sc] = l.applyErr.Error()
		case sc == compiler.Baseline:
			row.Baseline = l.st
		default:
			row.Stats[sc] = l.st
		}
	}
	return row, nil
}

// Perf is the workload x scheme sweep of Figures 12, 15 and 16: every
// workload under baseline plus the given schemes, one row per engine job.
// Scheme failures (inter-thread on mm/snap) are recorded, not fatal. On
// cancellation the completed rows are returned with the error.
func (s *Session) Perf(ctx context.Context, schemes []compiler.Scheme) (*PerfResult, error) {
	all := workloads.All()
	rows, err := engine.Map(ctx, s.pool, len(all), func(ctx context.Context, i int) (*PerfRow, error) {
		rec := s.pool.Recorder()
		start := rec.Now()
		row, rerr := s.perfRow(ctx, all[i], schemes)
		if rerr == nil {
			rec.Span(rec.Process("harness"), rec.NextTID(), "perf:"+all[i].Name, "driver",
				start, rec.Now()-start, map[string]any{"schemes": len(schemes)})
		}
		return row, rerr
	})
	res := &PerfResult{Schemes: schemes}
	for _, row := range rows {
		if row != nil {
			res.Rows = append(res.Rows, row)
		}
	}
	return res, err
}

// Operands traces the injection-source workloads in parallel and merges the
// traces in canonical workload order, which reproduces the tuple stream of
// a serial collection. The paper traces the Rodinia 2.3 programs' lowest
// threads with a bounded trace (Section IV-A); SNAP is traced too, for its
// double-precision arithmetic, so the FP64 units see real operands. On
// cancellation the partial trace is returned with the error.
func (s *Session) Operands(ctx context.Context, limit int) (*trace.OperandTrace, error) {
	progs := append([]*workloads.Workload{}, workloads.Rodinia()...)
	if snap, err := workloads.ByName("snap"); err == nil {
		progs = append(progs, snap)
	}
	traces, err := engine.Map(ctx, s.pool, len(progs), func(ctx context.Context, i int) (*trace.OperandTrace, error) {
		rec := s.pool.Recorder()
		start := rec.Now()
		tr := trace.NewOperandTrace(limit)
		g := progs[i].NewGPU(sm.DefaultConfig())
		g.Trace = tr.Func(8) // lowest 8 lanes per warp ≈ lowest threads
		if _, lerr := g.LaunchContext(ctx, progs[i].Kernel); lerr != nil {
			return nil, lerr
		}
		if rec != nil {
			operands := 0
			for _, n := range tr.Counts() {
				operands += n
			}
			rec.Span(rec.Process("harness"), rec.NextTID(), "trace:"+progs[i].Name, "driver",
				start, rec.Now()-start, map[string]any{"operands": operands})
		}
		return tr, nil
	})
	merged := trace.NewOperandTrace(limit)
	for _, tr := range traces {
		if tr != nil {
			merged.Merge(tr)
		}
	}
	return merged, err
}

type injectionKey struct {
	tuples int
	seed   int64
}

// Injection is the Figure 10/11 campaign, run once per (tuples, seed) in
// the session: `tuples` unmasked single-event errors into each of the six
// pipelined arithmetic units (the paper uses 10,000), from traced operands,
// with every unit's seed-derived shards as one flat job list on the pool.
// For a given seed the result is bit-identical at any worker count. On
// cancellation it returns the partial result (whole shards only) with the
// error — always a valid, non-nil InjectionResult whose counts remain
// usable as Wilson-interval inputs.
func (s *Session) Injection(ctx context.Context, tuples int, seed int64) (*InjectionResult, error) {
	return once(ctx, s.memo, injectionKey{tuples, seed}, func() (*InjectionResult, error) {
		s.memo.campaigns.Add(1)
		units := arith.Units()
		res := &InjectionResult{Tuples: tuples}
		for _, u := range units {
			res.Units = append(res.Units, &UnitInjection{Unit: u})
		}
		tr, err := s.Operands(ctx, tuples)
		if err != nil {
			// Partial-result contract: a cancelled trace yields an empty
			// but valid campaign result (zero injections per unit), not nil.
			return res, err
		}
		plan := PlanInjection(units, tr, tuples, seed)
		campaignStart := time.Now()
		shards, err := engine.Map(ctx, s.pool, len(plan.Shards()), func(ctx context.Context, j int) (ShardResult, error) {
			return plan.RunShard(ctx, s.pool, j)
		})
		return plan.Assemble(shards, time.Since(campaignStart).Seconds()), err
	})
}
