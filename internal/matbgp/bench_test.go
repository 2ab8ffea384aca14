package matbgp

import (
	"testing"

	"beatbgp/internal/bgp"
	"beatbgp/internal/delta"
	"beatbgp/internal/topology"
)

// synthWorld builds a 100k-AS three-tier hierarchy from first principles
// (no topology.Topo, no geography): a 10-AS tier-1 clique, nTransit
// transits dual-homed into the clique, and stubs dual-homed into transit
// pairs drawn from a fixed rotation so they collapse into nTransit
// equivalence classes. Link IDs are slice indices, matching New's
// contract; distances vary deterministically so ties exercise the full
// decision order.
func synthWorld(nTier1, nTransit, nStub int) (int, []int, []Link) {
	n := nTier1 + nTransit + nStub
	asn := make([]int, n)
	for i := range asn {
		asn[i] = 100 + i
	}
	dist := func(i int) float64 { return float64(i*37%1000) + 1 }
	var links []Link
	// Tier-1 full mesh, peer to peer.
	for a := 0; a < nTier1; a++ {
		for b := a + 1; b < nTier1; b++ {
			links = append(links, Link{A: a, B: b, Rel: topology.P2P,
				DistA: dist(a + b), DistB: dist(a*3 + b)})
		}
	}
	// Transits: customers of two tier-1s.
	for t := 0; t < nTransit; t++ {
		v := nTier1 + t
		for k := 0; k < 2; k++ {
			p := (t + k*3) % nTier1
			links = append(links, Link{A: v, B: p, Rel: topology.C2P,
				DistA: dist(v + k), DistB: dist(v * 2)})
		}
	}
	// Stubs: customers of a rotating transit pair. Stub i and stub
	// i+nTransit share the same provider pair, hence the same class.
	for s := 0; s < nStub; s++ {
		v := nTier1 + nTransit + s
		p1 := nTier1 + s%nTransit
		p2 := nTier1 + (s+7)%nTransit
		if p1 == p2 {
			p2 = nTier1 + (s+1)%nTransit
		}
		links = append(links, Link{A: v, B: p1, Rel: topology.C2P,
			DistA: dist(s), DistB: dist(s + 11)})
		links = append(links, Link{A: v, B: p2, Rel: topology.C2P,
			DistA: dist(s + 5), DistB: dist(s + 13)})
	}
	return n, asn, links
}

// distinctOrigins lists one origin per distinct column: every non-stub,
// then one representative per stub class.
func distinctOrigins(g *Graph) []int {
	var origins []int
	for v := 0; v < g.NumASes(); v++ {
		if g.ClassOf(v) < 0 {
			origins = append(origins, v)
		}
	}
	for c := 0; c < g.NumClasses(); c++ {
		origins = append(origins, int(g.ClassMembers(c)[0]))
	}
	return origins
}

// benchSink defeats dead-code elimination across benchmark iterations.
var benchSink uint32

// BenchmarkMatbgpAllPairs measures the all-pairs sweep at internet scale:
// one packed column per distinct origin — every non-stub AS plus one
// representative per stub equivalence class (the remaining ~97k stub
// columns are O(n) relabels of their representative's, see Engine).
// Columns are streamed through a checksum rather than materialized, so
// the resident set stays at one column regardless of AS count.
func BenchmarkMatbgpAllPairs(b *testing.B) {
	const nTier1, nTransit, nStub = 10, 500, 100000 - 510
	n, asn, links := synthWorld(nTier1, nTransit, nStub)
	g, err := New(n, asn, links)
	if err != nil {
		b.Fatal(err)
	}
	origins := distinctOrigins(g)
	b.ReportMetric(float64(g.NumASes()), "ases")
	b.ReportMetric(float64(len(origins)), "columns")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sum uint32
		for _, origin := range origins {
			col, err := g.column([]bgp.Announcement{{Origin: origin}}, nil)
			if err != nil {
				b.Fatal(err)
			}
			for _, w := range col {
				sum ^= w
			}
		}
		benchSink = sum
	}
}

// BenchmarkTopologyCompress measures lowering + stub-class compression of
// the 100k-AS synthetic world: CSR construction over ~200k links plus the
// signature pass that folds ~99k stubs into ~500 equivalence classes.
func BenchmarkTopologyCompress(b *testing.B) {
	const nTier1, nTransit, nStub = 10, 500, 100000 - 510
	n, asn, links := synthWorld(nTier1, nTransit, nStub)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := New(n, asn, links)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = uint32(g.NumClasses())
	}
}

// BenchmarkDeltaRepair measures event-driven route repair at internet
// scale against the full-rebuild baseline (BenchmarkMatbgpAllPairs is
// the rebuild of the same world). Setup builds one Repairer per
// distinct column — every non-stub plus one representative per stub
// class, the same census the all-pairs sweep uses; each iteration then
// flaps one transit uplink (down delta, then up delta) across all of
// them. Unaffected columns reject the delta with one O(degree) endpoint
// scan, affected ones repair only their withdraw/improve cones, so a
// single-link flap costs milliseconds where the rebuild costs the full
// sweep.
func BenchmarkDeltaRepair(b *testing.B) {
	const nTier1, nTransit, nStub = 10, 500, 100000 - 510
	n, asn, links := synthWorld(nTier1, nTransit, nStub)
	g, err := New(n, asn, links)
	if err != nil {
		b.Fatal(err)
	}
	origins := distinctOrigins(g)
	sc := g.NewRepairScratch()
	reps := make([]*Repairer, len(origins))
	for i, origin := range origins {
		r, err := g.NewRepairer([]bgp.Announcement{{Origin: origin}}, nil)
		if err != nil {
			b.Fatal(err)
		}
		reps[i] = r.WithScratch(sc)
	}
	// The first transit's first uplink into the tier-1 clique: inside
	// the customer cones of its homed stubs, so the flap dirties a real
	// (but sparse) set of columns.
	flap := nTier1 * (nTier1 - 1) / 2
	downD := delta.Delta{Down: []int{flap}}
	upD := delta.Delta{Up: []int{flap}}
	b.ReportMetric(float64(g.NumASes()), "ases")
	b.ReportMetric(float64(len(reps)), "columns")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sum uint32
		for _, r := range reps {
			if err := r.Apply(downD); err != nil {
				b.Fatal(err)
			}
			sum ^= r.Column()[flap%n]
			if err := r.Apply(upD); err != nil {
				b.Fatal(err)
			}
		}
		benchSink = sum
	}
}

// BenchmarkDeltaRepairColumn is the per-column view of the same flap:
// one affected column repaired (down then up) per iteration, directly
// comparable to one g.column rebuild pair at the same down sets
// (BenchmarkDeltaRebuildColumn).
func BenchmarkDeltaRepairColumn(b *testing.B) {
	const nTier1, nTransit, nStub = 10, 500, 100000 - 510
	n, asn, links := synthWorld(nTier1, nTransit, nStub)
	g, err := New(n, asn, links)
	if err != nil {
		b.Fatal(err)
	}
	// Origin homed on the flapped transit (stub 0's first provider is
	// transit 0), so the flap always dirties this column.
	anns := []bgp.Announcement{{Origin: nTier1 + nTransit}}
	r, err := g.NewRepairer(anns, nil)
	if err != nil {
		b.Fatal(err)
	}
	flap := nTier1 * (nTier1 - 1) / 2
	downD := delta.Delta{Down: []int{flap}}
	upD := delta.Delta{Up: []int{flap}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.Apply(downD); err != nil {
			b.Fatal(err)
		}
		if err := r.Apply(upD); err != nil {
			b.Fatal(err)
		}
		benchSink = r.Column()[0]
	}
}

// BenchmarkDeltaRebuildColumn is BenchmarkDeltaRepairColumn's rebuild
// baseline: the same two epochs recomputed from scratch.
func BenchmarkDeltaRebuildColumn(b *testing.B) {
	const nTier1, nTransit, nStub = 10, 500, 100000 - 510
	n, asn, links := synthWorld(nTier1, nTransit, nStub)
	g, err := New(n, asn, links)
	if err != nil {
		b.Fatal(err)
	}
	anns := []bgp.Announcement{{Origin: nTier1 + nTransit}}
	flap := nTier1 * (nTier1 - 1) / 2
	down := map[int]bool{flap: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		col, err := g.column(anns, down)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = col[0]
		if col, err = g.column(anns, nil); err != nil {
			b.Fatal(err)
		}
		benchSink ^= col[0]
	}
}
