package gates

import (
	"math/rand"
	"sync"
	"testing"
)

// reachable computes node site's fan-out cone by brute force: for each node,
// walk its fan-in transitively and check whether site appears. Quadratic and
// independent of the bit-parallel code under test.
func reachable(c *Circuit, site int) map[int32]bool {
	cone := map[int32]bool{int32(site): true}
	for i := 0; i < c.NumNodes(); i++ {
		c.fanIn(i, func(in int32) {
			if cone[in] {
				cone[int32(i)] = true
			}
		})
	}
	return cone
}

// TestConeSizesMatchReachability: for random circuits and every node, the
// bit-parallel cone size equals the brute-force reachable set's size. The
// circuits span several 64-node blocks (the block boundaries move from
// trial to trial). The deep ones draw fan-ins mostly from recent nodes, so
// their early cones hold more than 128 nodes and the bit-plane counters
// carry across eight planes.
func TestConeSizesMatchReachability(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 8; trial++ {
		checkConeSizes(t, randomCircuit(rng, 5, 130+37*trial))
		c := deepCircuit(rng, 200+37*trial)
		checkConeSizes(t, c)
		if st := c.ConeStats(); st.MaxCone <= 128 {
			t.Fatalf("trial %d: largest deep cone has only %d nodes", trial, st.MaxCone)
		}
	}
}

// deepCircuit builds a random DAG whose gates read mostly the last few
// nodes, giving long paths and large fan-out cones.
func deepCircuit(rng *rand.Rand, nGates int) *Circuit {
	b := NewBuilder("deep")
	nodes := []int{b.Zero(), b.One(), b.Input(), b.Input()}
	pick := func() int {
		if rng.Intn(4) == 0 {
			return nodes[rng.Intn(len(nodes))]
		}
		return nodes[len(nodes)-1-rng.Intn(min(len(nodes), 4))]
	}
	for i := 0; i < nGates; i++ {
		var n int
		switch rng.Intn(5) {
		case 0:
			n = b.Not(pick())
		case 1:
			n = b.Xor(pick(), pick())
		case 2:
			n = b.Nand(pick(), pick())
		case 3:
			n = b.Mux(pick(), pick(), pick())
		default:
			n = b.FF(pick())
		}
		nodes = append(nodes, n)
		if rng.Intn(16) == 0 {
			b.Output(n)
		}
	}
	b.Output(nodes[len(nodes)-1])
	return b.Build()
}

// checkConeSizes asserts every node's cone size against reachable.
func checkConeSizes(t *testing.T, c *Circuit) {
	t.Helper()
	size := c.coneSizes()
	if len(size) != c.NumNodes() {
		t.Fatalf("%d cone sizes for %d nodes", len(size), c.NumNodes())
	}
	for site := 0; site < c.NumNodes(); site++ {
		if want := len(reachable(c, site)); int(size[site]) != want {
			t.Fatalf("%d nodes: node %d (%v) cone size %d, want %d",
				c.NumNodes(), site, c.Kind(site), size[site], want)
		}
	}
}

// checkConeStats asserts ConeStats field for field against brute force.
func checkConeStats(t *testing.T, c *Circuit) {
	t.Helper()
	st := c.ConeStats()
	sites := c.FaultSites()
	want := ConeStats{Sites: len(sites), NetNodes: c.NumNodes()}
	total := 0
	for _, s := range sites {
		n := len(reachable(c, s))
		total += n
		want.MaxCone = max(want.MaxCone, n)
	}
	if len(sites) > 0 {
		want.MeanCone = float64(total) / float64(len(sites))
		want.MeanFrac = want.MeanCone / float64(c.NumNodes())
	}
	if st != want {
		t.Fatalf("ConeStats %+v, want %+v", st, want)
	}
}

// TestConeEvaluatorMatchesEval is the tentpole equivalence property on
// random circuits: for every node of the circuit, EvalSite against one
// Baseline snapshot is bit-identical to a full faulted Eval — and because
// sites run back-to-back against the same snapshot, the pass also proves
// EvalSite restores the snapshot exactly.
func TestConeEvaluatorMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 10; trial++ {
		c := randomCircuit(rng, 5, 80)
		full := NewEvaluator(c)
		inc := NewConeEvaluator(c)
		words := make([]uint64, c.NumInputs())
		for i := range words {
			words[i] = rng.Uint64()
		}
		base := inc.Baseline(words)
		clean := full.Eval(words, NoFault)
		for o := range clean {
			if base[o] != clean[o] {
				t.Fatalf("trial %d: baseline output %d mismatch", trial, o)
			}
		}
		for site := 0; site < c.NumNodes(); site++ {
			got := inc.EvalSite(site)
			want := full.Eval(words, site)
			for o := range want {
				if got[o] != want[o] {
					t.Fatalf("trial %d site %d (%v) output %d: cone %x, full %x",
						trial, site, c.Kind(site), o, got[o], want[o])
				}
			}
		}
	}
}

// TestConeEvaluatorRebaseline: a second Baseline with different inputs fully
// replaces the snapshot — no stale values from the previous batch or from
// intervening EvalSite calls survive.
func TestConeEvaluatorRebaseline(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	c := randomCircuit(rng, 5, 80)
	full := NewEvaluator(c)
	inc := NewConeEvaluator(c)
	sites := c.FaultSites()
	for batch := 0; batch < 5; batch++ {
		words := make([]uint64, c.NumInputs())
		for i := range words {
			words[i] = rng.Uint64()
		}
		inc.Baseline(words)
		for i := 0; i < 10; i++ {
			site := sites[rng.Intn(len(sites))]
			got := inc.EvalSite(site)
			want := full.Eval(words, site)
			for o := range want {
				if got[o] != want[o] {
					t.Fatalf("batch %d site %d output %d mismatch", batch, site, o)
				}
			}
		}
	}
}

// Degenerate circuits: the cone machinery must not assume the presence of
// gates, inputs, or fault sites.

func TestConeDegenerateConstantOnly(t *testing.T) {
	b := NewBuilder("consts")
	b.Output(b.Zero(), b.One())
	c := b.Build()
	if sites := c.FaultSites(); len(sites) != 0 {
		t.Fatalf("constant-only circuit has %d fault sites", len(sites))
	}
	st := c.ConeStats()
	if st.Sites != 0 || st.MeanCone != 0 || st.MaxCone != 0 {
		t.Fatalf("constant-only stats: %+v", st)
	}
	// Cones of the constants themselves are well-defined: just the node.
	for site, n := range c.coneSizes() {
		if n != 1 {
			t.Fatalf("const node %d cone size %d", site, n)
		}
	}
	inc := NewConeEvaluator(c)
	out := inc.Baseline(nil)
	if out[0] != 0 || out[1] != ^uint64(0) {
		t.Fatalf("constant outputs %x %x", out[0], out[1])
	}
	if f := inc.EvalSite(0); f[0] != ^uint64(0) || f[1] != ^uint64(0) {
		t.Fatalf("faulted const0: %x %x", f[0], f[1])
	}
}

func TestConeDegenerateSingleGate(t *testing.T) {
	b := NewBuilder("onegate")
	in := b.Input()
	b.Output(b.Not(in))
	c := b.Build()
	sites := c.FaultSites()
	if len(sites) != 1 {
		t.Fatalf("fault sites: %v", sites)
	}
	size := c.coneSizes()
	if size[sites[0]] != 1 {
		t.Fatalf("single-gate cone size %d", size[sites[0]])
	}
	// The input's cone covers the gate too.
	if size[in] != 2 {
		t.Fatalf("input cone size %d", size[in])
	}
	inc := NewConeEvaluator(c)
	word := uint64(0x0f0f0f0f0f0f0f0f)
	if out := inc.Baseline([]uint64{word}); out[0] != ^word {
		t.Fatalf("baseline %x", out[0])
	}
	if f := inc.EvalSite(sites[0]); f[0] != word {
		t.Fatalf("faulted NOT gives %x", f[0])
	}
	st := c.ConeStats()
	if st.Sites != 1 || st.MeanCone != 1 || st.MaxCone != 1 {
		t.Fatalf("single-gate stats: %+v", st)
	}
}

func TestConeDegenerateFFChain(t *testing.T) {
	b := NewBuilder("ffchain")
	n := b.Input()
	ffs := make([]int, 0, 4)
	for i := 0; i < 4; i++ {
		n = b.FF(n)
		ffs = append(ffs, n)
	}
	b.Output(n)
	c := b.Build()
	if got := len(c.FaultSites()); got != 4 {
		t.Fatalf("FF-only circuit has %d sites, want 4", got)
	}
	// FF i's cone is the chain suffix.
	for i, ff := range ffs {
		if n := c.coneSizes()[ff]; n != int32(4-i) {
			t.Fatalf("FF %d cone size %d", i, n)
		}
	}
	inc := NewConeEvaluator(c)
	word := uint64(0x123456789abcdef0)
	if out := inc.Baseline([]uint64{word}); out[0] != word {
		t.Fatalf("chain baseline %x", out[0])
	}
	for _, ff := range ffs {
		if f := inc.EvalSite(ff); f[0] != ^word {
			t.Fatalf("FF fault gives %x", f[0])
		}
	}
}

// TestConeStatsMatchesCones cross-checks ConeStats against the sizes of
// brute-force cones, on circuits that cross several 64-node blocks.
func TestConeStatsMatchesCones(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 4; trial++ {
		checkConeStats(t, randomCircuit(rng, 5, 150+50*trial))
	}
}

// TestEvalZeroAlloc pins the allocation-free contract of the hot evaluation
// paths: Evaluator.Eval (which used to allocate its output slice per call)
// and ConeEvaluator.Baseline/EvalSite.
func TestEvalZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := randomCircuit(rng, 5, 80)
	full := NewEvaluator(c)
	inc := NewConeEvaluator(c)
	words := make([]uint64, c.NumInputs())
	for i := range words {
		words[i] = rng.Uint64()
	}
	sites := c.FaultSites()
	inc.Baseline(words)
	i := 0
	if n := testing.AllocsPerRun(100, func() {
		full.Eval(words, sites[i%len(sites)])
		i++
	}); n != 0 {
		t.Errorf("Evaluator.Eval allocates %.1f/op", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		inc.EvalSite(sites[i%len(sites)])
		i++
	}); n != 0 {
		t.Errorf("ConeEvaluator.EvalSite allocates %.1f/op", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		inc.Baseline(words)
	}); n != 0 {
		t.Errorf("ConeEvaluator.Baseline allocates %.1f/op", n)
	}
}

// FuzzConeEquivalence fuzzes the incremental/full equivalence: the fuzzer
// picks the circuit shape, the input lanes, and the fault site; the property
// is EvalSite == Eval == the boolean reference interpreter on every lane.
func FuzzConeEquivalence(f *testing.F) {
	f.Add(int64(1), uint64(0xdeadbeef), 0)
	f.Add(int64(42), uint64(0), 5)
	f.Add(int64(7), ^uint64(0), 100)
	f.Fuzz(func(t *testing.T, seed int64, w uint64, sitePick int) {
		rng := rand.New(rand.NewSource(seed))
		c := randomCircuit(rng, 4, 40)
		words := make([]uint64, c.NumInputs())
		for i := range words {
			words[i] = rng.Uint64() ^ w
		}
		if sitePick < 0 {
			sitePick = -sitePick
		}
		site := sitePick % c.NumNodes()
		full := NewEvaluator(c)
		inc := NewConeEvaluator(c)
		inc.Baseline(words)
		got := inc.EvalSite(site)
		want := full.Eval(words, site)
		for o := range want {
			if got[o] != want[o] {
				t.Fatalf("site %d output %d: cone %x, full %x", site, o, got[o], want[o])
			}
		}
		// Anchor to the independent interpreter on one lane.
		lane := int(w % 64)
		inputs := make([]bool, c.NumInputs())
		for i := range inputs {
			inputs[i] = words[i]&(1<<uint(lane)) != 0
		}
		ref := refEval(c, inputs, site)
		for o := range ref {
			if gotBit := got[o]&(1<<uint(lane)) != 0; gotBit != ref[o] {
				t.Fatalf("site %d lane %d output %d: cone %v, reference %v", site, lane, o, gotBit, ref[o])
			}
		}
	})
}

// checkSites runs EvalSite for each site back to back against one snapshot
// of words, compares every result with a full faulted Eval, and finally
// asserts that the evaluator's node values equal the snapshot again.
func checkSites(t *testing.T, c *Circuit, words []uint64, sites []int) {
	t.Helper()
	full := NewEvaluator(c)
	inc := NewConeEvaluator(c)
	inc.Baseline(words)
	for _, site := range sites {
		got := inc.EvalSite(site)
		want := full.Eval(words, site)
		for o := range want {
			if got[o] != want[o] {
				t.Fatalf("site %d (%v) output %d: event-driven %x, full %x",
					site, c.Kind(site), o, got[o], want[o])
			}
		}
	}
	for i := range inc.val {
		if inc.val[i] != inc.base[i] {
			t.Fatalf("node %d not restored: %x, snapshot %x", i, inc.val[i], inc.base[i])
		}
	}
	for w, d := range inc.dirty {
		if d != 0 {
			t.Fatalf("dirty word %d left set: %x", w, d)
		}
	}
}

// allNodes lists every node index of c, in ascending order.
func allNodes(c *Circuit) []int {
	nodes := make([]int, c.NumNodes())
	for i := range nodes {
		nodes[i] = i
	}
	return nodes
}

// TestEvalSiteEdgeCases covers the event-driven sweep's corner cases, each
// against the full evaluator.
func TestEvalSiteEdgeCases(t *testing.T) {
	t.Run("masked at first gate", func(t *testing.T) {
		b := NewBuilder("masked")
		a := b.Input()
		g := b.Not(a)
		b.Output(b.And(g, b.Zero()), a)
		c := b.Build()
		inc := NewConeEvaluator(c)
		word := uint64(0x5555aaaa5555aaaa)
		base := append([]uint64(nil), inc.Baseline([]uint64{word})...)
		got := inc.EvalSite(g)
		for o := range base {
			if got[o] != base[o] {
				t.Fatalf("output %d: %x, want baseline %x", o, got[o], base[o])
			}
		}
		// The accounting still charges the static cone: g and the AND.
		if ct := inc.Counters(); ct.ConeNodes != 2 || ct.SiteEvals != 1 {
			t.Fatalf("counters %+v", ct)
		}
		checkSites(t, c, []uint64{word}, allNodes(c))
	})
	t.Run("chain across words", func(t *testing.T) {
		b := NewBuilder("chain")
		n := b.Input()
		for i := 0; i < 300; i++ {
			if i%2 == 0 {
				n = b.Not(n)
			} else {
				n = b.FF(n)
			}
			if i%97 == 0 {
				b.Output(n)
			}
		}
		b.Output(n)
		c := b.Build()
		if c.NumNodes() < 4*64 {
			t.Fatalf("chain has %d nodes, want several words", c.NumNodes())
		}
		checkSites(t, c, []uint64{0x0123456789abcdef}, allNodes(c))
	})
	t.Run("two fan-in legs", func(t *testing.T) {
		b := NewBuilder("legs")
		x, y := b.Input(), b.Input()
		g := b.Xor(x, y)
		b.Output(
			b.And(g, g),    // both legs change: the fault passes
			b.Xor(g, g),    // both legs change: the fault cancels
			b.Mux(g, y, g), // select and data share the faulted node
			b.Mux(y, g, g), // both data legs share it
		)
		c := b.Build()
		checkSites(t, c, []uint64{0xff00ff00f0f0f0f0, 0xcccc3333aaaa5555}, allNodes(c))
	})
	t.Run("input and const sites", func(t *testing.T) {
		b := NewBuilder("sources")
		x, y := b.Input(), b.Input()
		b.Output(b.Or(x, b.One()), b.And(y, b.Zero()), b.Nand(x, y), x, b.One())
		c := b.Build()
		var sources []int
		for i := 0; i < c.NumNodes(); i++ {
			switch c.Kind(i) {
			case Const0, Const1, Input:
				sources = append(sources, i)
			}
		}
		checkSites(t, c, []uint64{0x1111222233334444, 0xfedcba9876543210}, sources)
	})
	t.Run("back to back", func(t *testing.T) {
		rng := rand.New(rand.NewSource(12))
		c := deepCircuit(rng, 400)
		words := make([]uint64, c.NumInputs())
		for i := range words {
			words[i] = rng.Uint64()
		}
		sites := allNodes(c)
		rng.Shuffle(len(sites), func(i, j int) { sites[i], sites[j] = sites[j], sites[i] })
		// Every node twice, shuffled, against one snapshot.
		checkSites(t, c, words, append(sites, sites...))
	})
}

// TestConcurrentEvaluators: evaluators on several goroutines share one
// fresh circuit, so its fan-out and cone-size memos are first built under
// contention; every goroutine must still match the full evaluator.
func TestConcurrentEvaluators(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	c := deepCircuit(rng, 300)
	words := []uint64{rng.Uint64(), rng.Uint64()}
	full := NewEvaluator(c)
	want := make([][]uint64, c.NumNodes())
	for site := range want {
		want[site] = append([]uint64(nil), full.Eval(words, site)...)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			inc := NewConeEvaluator(c)
			inc.Baseline(words)
			for site, w := range want {
				got := inc.EvalSite(site)
				for o := range w {
					if got[o] != w[o] {
						t.Errorf("goroutine %d site %d output %d: %x, want %x", g, site, o, got[o], w[o])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	checkConeSizes(t, c)
}

// FuzzConeSizes fuzzes the bit-parallel cone-size pass: for a random
// circuit of fuzzer-chosen shape, every node's size and the ConeStats
// aggregate must equal brute-force reachability.
func FuzzConeSizes(f *testing.F) {
	f.Add(int64(1), uint16(60))
	f.Add(int64(2), uint16(200))
	f.Add(int64(3), uint16(0))
	f.Fuzz(func(t *testing.T, seed int64, nGates uint16) {
		rng := rand.New(rand.NewSource(seed))
		for _, c := range []*Circuit{
			randomCircuit(rng, 1+rng.Intn(6), int(nGates%400)),
			deepCircuit(rng, int(nGates%400)),
		} {
			checkConeSizes(t, c)
			checkConeStats(t, c)
		}
	})
}
