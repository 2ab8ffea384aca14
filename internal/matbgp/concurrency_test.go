package matbgp

import (
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"beatbgp/internal/bgp"
	"beatbgp/internal/delta"
)

// randomDeltaWalk builds a deterministic delta walk for one chain,
// keyed off the rng, mirroring TestRepairMatchesRebuildRandomDeltas's
// shape (repeated flaps and no-ops included).
func randomDeltaWalk(rng *rand.Rand, nl, steps int) []delta.Delta {
	walk := make([]delta.Delta, steps)
	for i := range walk {
		var d delta.Delta
		for k := rng.Intn(3); k > 0; k-- {
			d.Down = append(d.Down, rng.Intn(nl))
		}
		for k := rng.Intn(3); k > 0; k-- {
			d.Up = append(d.Up, rng.Intn(nl))
		}
		walk[i] = d
	}
	return walk
}

// TestRepairInterleavedChainsBitIdentical is the scratch-aliasing
// regression test: two repair chains over one Graph — each repairer
// owning its private scratch, as StartRepair hands out — applied (a)
// sequentially to completion, (b) interleaved step by step on one
// goroutine, and (c) concurrently on two goroutines, must leave
// byte-identical columns in all three schedules. Before the
// one-scratch-per-repairer enforcement, an aliased workspace made (b)
// and (c) diverge silently.
func TestRepairInterleavedChainsBitIdentical(t *testing.T) {
	topo := repairTopo(t, 3)
	g, err := FromTopo(topo)
	if err != nil {
		t.Fatal(err)
	}
	n, nl := topo.NumASes(), len(topo.Links)
	annsA := []bgp.Announcement{{Origin: 0}}
	annsB := []bgp.Announcement{{Origin: n - 1}}
	rng := rand.New(rand.NewSource(97))
	walkA := randomDeltaWalk(rng, nl, 40)
	walkB := randomDeltaWalk(rng, nl, 40)

	run := func(r *Repairer, walk []delta.Delta) {
		t.Helper()
		for i, d := range walk {
			if err := r.Apply(d); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
		}
	}
	newPair := func() (*Repairer, *Repairer) {
		t.Helper()
		ra, err := g.NewRepairer(annsA, nil)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := g.NewRepairer(annsB, nil)
		if err != nil {
			t.Fatal(err)
		}
		return ra, rb
	}

	// (a) sequential: chain A to completion, then chain B.
	seqA, seqB := newPair()
	run(seqA, walkA)
	run(seqB, walkB)

	// (b) interleaved on one goroutine: A1 B1 A2 B2 ...
	intA, intB := newPair()
	for i := range walkA {
		if err := intA.Apply(walkA[i]); err != nil {
			t.Fatalf("interleaved A step %d: %v", i, err)
		}
		if err := intB.Apply(walkB[i]); err != nil {
			t.Fatalf("interleaved B step %d: %v", i, err)
		}
	}

	// (c) concurrent: each chain on its own goroutine (each repairer
	// stays single-goroutine; only the Graph and class caches are
	// shared).
	conA, conB := newPair()
	var wg sync.WaitGroup
	for _, pair := range []struct {
		r    *Repairer
		walk []delta.Delta
	}{{conA, walkA}, {conB, walkB}} {
		wg.Add(1)
		go func(r *Repairer, walk []delta.Delta) {
			defer wg.Done()
			for _, d := range walk {
				if err := r.Apply(d); err != nil {
					t.Errorf("concurrent chain: %v", err)
					return
				}
			}
		}(pair.r, pair.walk)
	}
	wg.Wait()

	for label, pair := range map[string][2]*Repairer{
		"interleaved": {intA, intB},
		"concurrent":  {conA, conB},
	} {
		for chain, got := range []*Repairer{pair[0], pair[1]} {
			want := [2]*Repairer{seqA, seqB}[chain]
			wc, gc := want.Column(), got.Column()
			for v := range wc {
				if wc[v] != gc[v] {
					t.Fatalf("%s chain %d: AS %d word %#x, sequential %#x", label, chain, v, gc[v], wc[v])
				}
			}
		}
	}
}

// TestRepairScratchAliasGuard locks in the enforcement half of the
// one-scratch-per-repairer contract: an Apply against a scratch that
// is already owned by an in-flight Apply must refuse with an error
// instead of corrupting both columns, and non-overlapping Applies on
// repairers sharing a scratch must keep working.
func TestRepairScratchAliasGuard(t *testing.T) {
	topo := repairTopo(t, 1)
	g, err := FromTopo(topo)
	if err != nil {
		t.Fatal(err)
	}
	sc := g.NewRepairScratch()
	r1, err := g.NewRepairer([]bgp.Announcement{{Origin: 0}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	r1.WithScratch(sc)
	r2, err := g.NewRepairer([]bgp.Announcement{{Origin: topo.NumASes() - 1}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2.WithScratch(sc)

	d := delta.Delta{Down: []int{0}}
	// Interleaved (non-overlapping) shared-scratch use stays legal.
	if err := r1.Apply(d); err != nil {
		t.Fatalf("r1 apply: %v", err)
	}
	if err := r2.Apply(d); err != nil {
		t.Fatalf("r2 apply: %v", err)
	}
	// Simulate r1 mid-Apply; r2 must refuse rather than alias.
	sc.busy.Store(true)
	err = r2.Apply(delta.Delta{Up: []int{0}})
	if err == nil || !strings.Contains(err.Error(), "RepairScratch aliased") {
		t.Fatalf("aliased Apply: got %v, want RepairScratch aliased error", err)
	}
	sc.busy.Store(false)
	if err := r2.Apply(delta.Delta{Up: []int{0}}); err != nil {
		t.Fatalf("r2 apply after release: %v", err)
	}
}

// TestEngineClassColumnSingleflight hammers one stub class from many
// goroutines through the public Compute path: every caller must get a
// RIB bit-identical to the sequential answer, and the class cache must
// end up holding exactly one installed column (the in-flight map
// coalesces duplicate misses; run under -race to see the locking).
func TestEngineClassColumnSingleflight(t *testing.T) {
	topo := repairTopo(t, 2)
	e, err := NewEngine(topo)
	if err != nil {
		t.Fatal(err)
	}
	// Pick a stub origin (one with a class).
	origin := -1
	for v := 0; v < topo.NumASes(); v++ {
		if e.g.classOf[v] >= 0 {
			origin = v
			break
		}
	}
	if origin < 0 {
		t.Skip("no stub class in this topology")
	}
	class := e.g.classOf[origin]
	anns := []bgp.Announcement{{Origin: origin}}

	want, err := bgp.NewReference(topo).Compute(anns)
	if err != nil {
		t.Fatal(err)
	}

	const workers = 16
	ribs := make([]*bgp.RIB, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rib, err := e.Compute(anns)
			if err != nil {
				t.Errorf("worker %d: %v", w, err)
				return
			}
			ribs[w] = rib
		}(w)
	}
	wg.Wait()
	for w, rib := range ribs {
		if rib == nil {
			t.Fatalf("worker %d: no RIB", w)
		}
		requireSameRIB(t, topo, want, rib, "singleflight worker")
	}

	// Pointer stability: the installed column is the one every later
	// representative query returns.
	rep := e.g.classes[class][0]
	c1, err := e.repColumn(class, rep)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := e.repColumn(class, rep)
	if err != nil {
		t.Fatal(err)
	}
	if &c1[0] != &c2[0] {
		t.Fatal("class column pointer not stable across calls")
	}
	if len(e.inflight) != 0 {
		t.Fatalf("in-flight map not drained: %d entries", len(e.inflight))
	}
}

// TestColumnPoolConcurrent drives Graph.column from several goroutines
// at once over one Graph, so pooled column scratch is handed between
// them — including scratch returned by columns that failed mid-
// propagation (path-length capacity) or before it (duplicate origin).
// Every answer must equal the sequential one.
func TestColumnPoolConcurrent(t *testing.T) {
	topo := repairTopo(t, 1)
	g, err := FromTopo(topo)
	if err != nil {
		t.Fatal(err)
	}
	n, nl := topo.NumASes(), len(topo.Links)
	type query struct {
		anns []bgp.Announcement
		down map[int]bool
	}
	queries := []query{
		{anns: []bgp.Announcement{{Origin: 0, Prepend: maxPathLen - 2}}},
		{anns: []bgp.Announcement{{Origin: 1}, {Origin: 1}}},
	}
	rng := rand.New(rand.NewSource(31))
	for len(queries) < 24 {
		q := query{anns: []bgp.Announcement{{Origin: rng.Intn(n)}}}
		if rng.Intn(2) == 0 {
			q.down = map[int]bool{rng.Intn(nl): true, rng.Intn(nl): true}
		}
		queries = append(queries, q)
	}
	type answer struct {
		col []uint32
		err string
	}
	ask := func(q query) answer {
		col, err := g.column(q.anns, q.down)
		if err != nil {
			return answer{err: err.Error()}
		}
		return answer{col: col}
	}
	want := make([]answer, len(queries))
	for i, q := range queries {
		want[i] = ask(q)
	}
	if want[0].err == "" || want[1].err == "" {
		t.Fatalf("failing queries succeeded: %q, %q", want[0].err, want[1].err)
	}
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range queries {
				i := (k*5 + w) % len(queries)
				if got := ask(queries[i]); !reflect.DeepEqual(got, want[i]) {
					t.Errorf("worker %d query %d: concurrent answer differs from sequential", w, i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
