package harness

import (
	"context"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"swapcodes/internal/compiler"
	"swapcodes/internal/engine"
	"swapcodes/internal/workloads"
)

// artifacts are the launch-derived artifacts of the CLI plus the headline
// table, each computed from session s.
func artifacts(s *Session) map[string]func() (any, error) {
	ctx := context.Background()
	return map[string]func() (any, error){
		"headline": func() (any, error) { return s.Headline(ctx, 300, 2) },
		"fig12":    func() (any, error) { return s.Perf(ctx, Fig12Schemes()) },
		"fig13": func() (any, error) {
			perf, err := s.Perf(ctx, Fig13Schemes())
			if err != nil {
				return nil, err
			}
			return RunCodeMix(perf), nil
		},
		"fig14": func() (any, error) { return s.Power(ctx) },
		"fig15": func() (any, error) { return s.Perf(ctx, Fig15Schemes()) },
		"fig16": func() (any, error) { return s.Perf(ctx, Fig16Schemes()) },
		"cpistack": func() (any, error) {
			perf, err := s.Perf(ctx, Fig12Schemes())
			if err != nil {
				return nil, err
			}
			return CPIStacks(perf), nil
		},
	}
}

// TestSessionComputesOnce requests every launch-derived artifact
// concurrently from one session: each (workload, scheme, memory model)
// launch and the campaign must run exactly once, and every artifact must
// equal a fresh, unshared computation of itself on a one-worker pool, which
// also holds the shared four-worker results to the serial ones.
func TestSessionComputesOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the sweeps twice")
	}
	shared := NewSession(engine.New(4), Options{Verify: true})
	got := make(map[string]any)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for name, compute := range artifacts(shared) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := compute()
			if err != nil {
				t.Errorf("%s: %v", name, err)
			}
			mu.Lock()
			got[name] = v
			mu.Unlock()
		}()
	}
	wg.Wait()

	distinct := 0
	schemes := map[compiler.Scheme]bool{compiler.Baseline: true, compiler.SwapPredictFpMAD: true}
	for _, set := range [][]compiler.Scheme{Fig12Schemes(), Fig15Schemes(), Fig16Schemes()} {
		for _, s := range set {
			schemes[s] = true
		}
	}
	for _, w := range workloads.All() {
		for s := range schemes {
			if _, err := compiler.Apply(w.Kernel, s); err == nil {
				distinct++
			}
		}
	}
	if n := shared.memo.launches.Load(); n != int64(distinct) {
		t.Errorf("session ran %d launches, want %d (each distinct launch once)", n, distinct)
	}
	if n := shared.memo.campaigns.Load(); n != 1 {
		t.Errorf("session ran %d campaigns, want 1", n)
	}

	for name := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fresh, err := artifacts(NewSession(engine.New(1), Options{Verify: true}))[name]()
			if err != nil {
				t.Errorf("%s: %v", name, err)
			}
			if !reflect.DeepEqual(got[name], fresh) {
				t.Errorf("%s: shared result differs from a fresh serial computation", name)
			}
		}()
	}
	wg.Wait()
}

// TestSessionForgetsCancelledLaunch: a launch cancelled under its caller's
// context is not a result. The next caller with a live context computes it.
func TestSessionForgetsCancelledLaunch(t *testing.T) {
	s := NewSession(engine.New(1), Options{})
	w := workloads.All()[0]
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.launch(dead, w, compiler.Baseline); err == nil {
		t.Fatal("launch under a cancelled context succeeded")
	}
	l, err := s.launch(context.Background(), w, compiler.Baseline)
	if err != nil || l.st == nil {
		t.Fatalf("relaunch after cancellation: %v", err)
	}
	if n := s.memo.launches.Load(); n != 2 {
		t.Errorf("launches = %d, want 2 (the cancelled one, then the real one)", n)
	}
}

// TestOnceConcurrent: many callers of one key get the single producer's
// value, and the producer runs once.
func TestOnceConcurrent(t *testing.T) {
	m := &memo{cells: make(map[any]*cell)}
	var runs atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := once(context.Background(), m, "k", func() (int, error) {
				runs.Add(1)
				return 42, nil
			})
			if v != 42 || err != nil {
				t.Errorf("got %d, %v; want 42, nil", v, err)
			}
		}()
	}
	wg.Wait()
	if n := runs.Load(); n != 1 {
		t.Errorf("producer ran %d times, want 1", n)
	}
}
