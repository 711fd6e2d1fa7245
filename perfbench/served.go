package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"swapcodes/internal/arith"
	"swapcodes/internal/engine"
	"swapcodes/internal/faultsim"
	"swapcodes/internal/harness"
	"swapcodes/internal/jobs"
	"swapcodes/internal/obs"
	"swapcodes/internal/workloads"
)

// The served mix. Each of the two closed-loop clients runs, per pass,
// batchHits repeated specs (result-cache hits) and batchCampaigns new
// campaigns with fresh seeds in a seeded order, then, once both clients are
// done, one new perf sweep each. Hits are 80% of the jobs, so the median
// falls inside the hit mode and the 90th percentile inside the
// campaign-miss mode, each well away from a mode boundary. The perf sweeps
// take seconds and would hold up whichever campaigns they overlap, so they
// run apart from the mix.
const (
	servedClients  = 2
	batchHits      = 40
	batchCampaigns = 9
	// servedTuples is the per-unit tuple count of every served campaign:
	// one shard per unit, small enough that a miss stays a short job.
	servedTuples = 8
)

// server is one in-process job service on a loopback listener.
type server struct {
	svc  *jobs.Service
	srv  *obs.Server
	dir  string
	base string
	hc   *http.Client
}

func startServer(dir string) (*server, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	rec := obs.NewRecorder()
	svc, err := jobs.New(jobs.Options{StateDir: dir, Workers: 1, MaxConcurrentJobs: servedClients, Recorder: rec})
	if err != nil {
		return nil, err
	}
	srv, err := obs.StartConfigured(obs.ServerConfig{Addr: "127.0.0.1:0", Registry: rec.Registry(),
		Register: svc.Register, Ready: svc.ReadyChecks})
	if err != nil {
		svc.Close()
		return nil, err
	}
	s := &server{svc: svc, srv: srv, dir: dir, base: srv.URL(),
		hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * servedClients}}}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		resp, err := s.hc.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.close()
			return nil, fmt.Errorf("service at %s not ready: %v", s.base, err)
		}
	}
}

// close stops the listener and the service and removes the state directory.
func (s *server) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.hc.CloseIdleConnections()
	err := s.srv.Shutdown(ctx)
	if cerr := s.svc.Close(); err == nil {
		err = cerr
	}
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// httpStatusError is a non-success HTTP reply.
type httpStatusError struct {
	code int
	body string
}

func (e *httpStatusError) Error() string { return fmt.Sprintf("http %d: %s", e.code, e.body) }

func (s *server) do(method, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, &httpStatusError{resp.StatusCode, strings.TrimSpace(string(b))}
	}
	return b, nil
}

// submit posts a spec; a 429 (queue full) is counted and retried.
func (s *server) submit(spec jobs.Spec, n429 *atomic.Int64) (string, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return "", err
	}
	for attempt := 0; ; attempt++ {
		b, err := s.do(http.MethodPost, "/jobs", body)
		if he, ok := err.(*httpStatusError); ok && he.code == http.StatusTooManyRequests && attempt < 100 {
			n429.Add(1)
			time.Sleep(10 * time.Millisecond)
			continue
		}
		if err != nil {
			return "", fmt.Errorf("submit: %w", err)
		}
		var out struct{ ID string }
		if err := json.Unmarshal(b, &out); err != nil || out.ID == "" {
			return "", fmt.Errorf("submit: bad reply %q", b)
		}
		return out.ID, nil
	}
}

// awaitDone follows the job's event stream to its terminal event.
func (s *server) awaitDone(id string) error {
	resp, err := s.hc.Get(s.base + "/jobs/" + id + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events: http %d", resp.StatusCode)
	}
	ev, err := waitTerminal(resp.Body)
	if err != nil {
		return err
	}
	if ev.State != jobs.StateDone {
		return fmt.Errorf("job %s ended %s: %s", id, ev.State, ev.Error)
	}
	return nil
}

// resultCounter reads the result-cache hit or miss counter from /metrics.
func (s *server) resultCounter(name string) (int64, error) {
	b, err := s.do(http.MethodGet, "/metrics", nil)
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, name+"{") && strings.Contains(line, `item="result"`) {
			return strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
		}
	}
	return 0, nil
}

// servedRun is served_jobs' state.
type servedRun struct {
	b    *bench
	srv  *server
	rng  *rand.Rand
	n429 atomic.Int64
	opID atomic.Int32

	hits []jobs.Spec
	rows int // workloads a perf payload must cover
	// perf holds the distinct new perf specs, shuffled: [0] flat timing and
	// [1] the sectored memory model, 72 each. Every pass gives one client a
	// flat and the other a sectored perf job, so passes cost alike.
	perf     [2][]jobs.Spec
	nextPerf [2]int
	used     map[int64]bool // campaign seeds already submitted

	mu       sync.Mutex
	payloads map[string][]byte // spec key → first completed payload
}

func newServedRun(b *bench) *servedRun {
	r := &servedRun{b: b, rng: newRand(b.seed), used: make(map[int64]bool),
		payloads: make(map[string][]byte), rows: len(workloads.All())}
	var schemes []string // every protection scheme's API name
	for _, name := range harness.SchemeNames() {
		if name != "baseline" {
			schemes = append(schemes, name)
		}
	}
	for m, mem := range []string{"", "sectored"} {
		for i, a := range schemes {
			for _, c := range schemes[i+1:] {
				for _, skip := range []bool{false, true} {
					r.perf[m] = append(r.perf[m], jobs.Spec{Kind: jobs.KindPerf,
						Schemes: []string{a, c}, SkipVerify: skip, MemModel: mem})
				}
			}
		}
		r.rng.Shuffle(len(r.perf[m]), func(i, j int) { r.perf[m][i], r.perf[m][j] = r.perf[m][j], r.perf[m][i] })
	}
	r.hits = []jobs.Spec{r.newCampaign(), r.newCampaign(), r.newPerf(0), r.newPerf(1)}
	return r
}

func (r *servedRun) newCampaign() jobs.Spec {
	for {
		seed := 1 + r.rng.Int63n(1<<40)
		if !r.used[seed] {
			r.used[seed] = true
			return jobs.Spec{Kind: jobs.KindCampaign, Tuples: servedTuples, Seed: seed}
		}
	}
}

func (r *servedRun) newPerf(m int) jobs.Spec {
	s := r.perf[m][r.nextPerf[m]%len(r.perf[m])]
	r.nextPerf[m]++
	return s
}

// batch draws client c's mix for a pass and its perf sweep.
func (r *servedRun) batch(c int) ([]jobs.Spec, jobs.Spec) {
	var out []jobs.Spec
	for i := 0; i < batchHits; i++ {
		out = append(out, r.hits[r.rng.Intn(len(r.hits))])
	}
	for i := 0; i < batchCampaigns; i++ {
		out = append(out, r.newCampaign())
	}
	r.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out, r.newPerf(c % 2)
}

// run is one operation: submit, follow the event stream to the end, fetch
// the result, and check it.
func (r *servedRun) run(spec jobs.Spec) error {
	tr, id := r.b.tr, r.opID.Add(1)
	root := tr.start("jobs.op", -1, id)
	defer tr.stop(root)

	sp := tr.start("jobs.submit", root, id)
	jid, err := r.srv.submit(spec, &r.n429)
	tr.stop(sp)
	if err != nil {
		return err
	}
	sp = tr.start("jobs.complete", root, id)
	err = r.srv.awaitDone(jid)
	tr.stop(sp)
	if err != nil {
		return err
	}
	sp = tr.start("jobs.result", root, id)
	payload, err := r.srv.do(http.MethodGet, "/jobs/"+jid+"/result", nil)
	tr.stop(sp)
	if err != nil {
		return fmt.Errorf("result %s: %w", jid, err)
	}
	return r.record(spec, payload)
}

// record checks a payload: a repeat must return the first completion's
// bytes exactly; a perf sweep must cover every workload.
func (r *servedRun) record(spec jobs.Spec, payload []byte) error {
	if err := spec.Normalize(); err != nil {
		return err
	}
	key := spec.Key()
	r.mu.Lock()
	first, seen := r.payloads[key]
	if !seen {
		r.payloads[key] = payload
	}
	r.mu.Unlock()
	if seen && !bytes.Equal(first, payload) {
		return fmt.Errorf("%s %v: repeated spec returned different bytes", spec.Kind, spec.Seed)
	}
	if spec.Kind == jobs.KindPerf {
		var p jobs.PerfResult
		if err := json.Unmarshal(payload, &p); err != nil {
			return fmt.Errorf("perf payload: %w", err)
		}
		if len(p.Rows) != r.rows {
			return fmt.Errorf("perf payload has %d rows", len(p.Rows))
		}
	}
	return nil
}

func runServedJobs(b *bench) error {
	// Set-up, timed once: start the service, wait for /readyz, and
	// complete every repeated spec once so the timed mix finds them in the
	// result cache (this also fills the service's operand-trace cache and
	// unit netlists).
	b.concurrentOps = true
	var r *servedRun
	err := b.setup(1, func() error {
		srv, err := startServer(filepath.Join(outDir, fmt.Sprintf("served-%d", os.Getpid())))
		if err != nil {
			return err
		}
		r = newServedRun(b)
		r.srv = srv
		b.tr.setPass(-1)
		for _, spec := range r.hits {
			if err := r.run(spec); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
		return nil
	})
	if r != nil {
		defer r.srv.close()
	}
	if err != nil {
		return err
	}
	hits0, err := r.srv.resultCounter("jobs_cache_hits")
	if err != nil {
		return err
	}
	err = b.measure(func(pass int) error {
		var mixes [servedClients][]jobs.Spec
		var perf [servedClients]jobs.Spec
		for c := range mixes {
			mixes[c], perf[c] = r.batch(c)
		}
		clients := func(list func(c int) []jobs.Spec) {
			var wg sync.WaitGroup
			for c := range servedClients {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for _, j := range list(c) {
						b.op(func() error { return r.run(j) })
					}
				}()
			}
			wg.Wait()
		}
		clients(func(c int) []jobs.Spec { return mixes[c] })
		clients(func(c int) []jobs.Spec { return perf[c : c+1] })
		return nil
	})
	if err != nil {
		return err
	}
	hits1, err := r.srv.resultCounter("jobs_cache_hits")
	if err != nil {
		return err
	}
	b.counts = map[string]int64{"jobs.result_hits": hits1 - hits0}
	b.layer["jobs.hit_frac"] = float64(hits1-hits0) / float64(b.attempted())
	b.layer["jobs.http_429_n"] = float64(r.n429.Load())
	if b.tr != nil {
		spans := b.tr.snapshot()
		for _, name := range []string{"jobs.submit", "jobs.complete", "jobs.result"} {
			b.layer[name+"_ms"] = 1e3 * median(durations(spans, name, b.inPass)) * b.granted()
		}
	}
	return r.checkCampaigns()
}

// checkCampaigns recomputes every completed campaign in process, with the
// same entry points fault_campaign uses, and compares the severity and SDC
// tallies of each unit with the served payload. A mismatch counts as a
// failed operation. It runs after the window, on every proc.
func (r *servedRun) checkCampaigns() error {
	ctx := context.Background()
	tr, err := collectOperands(ctx, injectionSources(workloads.All()), servedTuples)
	if err != nil {
		return err
	}
	var served []*jobs.CampaignResult
	for _, payload := range r.payloads {
		var got jobs.CampaignResult
		if err := json.Unmarshal(payload, &got); err == nil && got.Kind == jobs.KindCampaign {
			served = append(served, &got) // perf payloads were checked on arrival
		}
	}
	units := arith.Units()
	pool := engine.New(runtime.GOMAXPROCS(0))
	_, err = engine.Map(ctx, pool, len(served), func(ctx context.Context, i int) (struct{}, error) {
		got := served[i]
		plan := harness.PlanInjection(units, tr, got.Tuples, got.Seed)
		shards := make([]harness.ShardResult, len(plan.Shards()))
		for j := range shards {
			var err error
			if shards[j], err = plan.RunShard(ctx, pool, j); err != nil {
				return struct{}{}, err
			}
		}
		if msg := compareCampaign(plan.Assemble(shards, 0), got); msg != "" {
			r.b.fail(fmt.Sprintf("campaign seed %d: %s", got.Seed, msg))
		}
		return struct{}{}, nil
	})
	return err
}

// compareCampaign reports the first difference between an in-process
// campaign and a served payload ("" when they agree).
func compareCampaign(want *harness.InjectionResult, got *jobs.CampaignResult) string {
	if len(got.Units) != len(want.Units) {
		return fmt.Sprintf("%d units, want %d", len(got.Units), len(want.Units))
	}
	sevKeys := []string{"1bit", "2-3bits", "4+bits"}
	for i, u := range want.Units {
		g := got.Units[i]
		if g.Unit != u.Unit.Name || g.Injections != len(u.Injections) {
			return fmt.Sprintf("unit %s: %d injections, want %s %d", g.Unit, g.Injections, u.Unit.Name, len(u.Injections))
		}
		for k, sev := range []faultsim.Severity{faultsim.OneBit, faultsim.TwoToThreeBits, faultsim.FourPlusBits} {
			c := faultsim.SeverityCounts(u.Injections, sev)
			if iv := g.Severity[sevKeys[k]]; iv.K != c.K || iv.N != c.N {
				return fmt.Sprintf("unit %s severity %s: %d/%d, want %d/%d", g.Unit, sevKeys[k], iv.K, iv.N, c.K, c.N)
			}
		}
		for _, code := range harness.Fig11Codes() {
			c := faultsim.SDCCounts(u.Injections, code, u.Unit.OutputWidth)
			if iv := g.SDC[code.Name()]; iv.K != c.K || iv.N != c.N {
				return fmt.Sprintf("unit %s SDC %s: %d/%d, want %d/%d", g.Unit, code.Name(), iv.K, iv.N, c.K, c.N)
			}
		}
	}
	return ""
}
