// Package matbgp is the batch all-pairs BGP engine: Gao–Rexford
// valley-free propagation over flat arrays instead of per-AS maps, in the
// style of matrix-bgpsim. A topology is lowered once into a dense CSR
// adjacency Graph with every decision-process input precomputed (relation
// views, geographic tie-break distances, neighbor ASNs); each prefix then
// propagates frontier-at-a-time — customer routes up by path length, peer
// routes one hop, provider routes down by path length — and the result is
// packed into one 32-bit word per (AS, origin): 2 bits of relation class,
// 10 bits of path length, 20 bits of next hop.
//
// Stub ASes (never the provider end of a customer link) carry most of
// the graph and almost none of the work. A stub that does not originate
// the prefix is a leaf: it can only hold a peer or provider route, so it
// exports nothing and no other AS ever reads its word. Propagation runs
// over the core alone — non-stubs and origins — and each leaf's row is
// filled afterwards in one pass over its own adjacencies, honoring failed
// links and origin-side suppression (leafRow). The CSR serves both sides:
// every AS lists its non-stub neighbors first, up to adjCore, then its
// stub neighbors, so core pushes never touch a stub. Delta repair keeps
// the same split: its dirty set holds only core ASes, and leaves whose
// inputs a delta touched are refilled once the core reaches its fixpoint.
//
// Stubs with identical provider/peer sets also form equivalence classes
// as origins: the column toward any member is identical except for the
// member's own row, the representative's row, and the link choice at
// direct adopters, all of which the engine fixes up at materialization
// time. With hundreds of stubs sharing a few dozen classes this collapses
// most of the all-pairs work.
//
// The recursive engine in internal/bgp is the differential reference:
// Engine must agree with bgp.ComputeWithout bit for bit, including path
// and link slices and every tie-break. See the differential unit and fuzz
// tests in this package.
package matbgp

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"beatbgp/internal/bgp"
	"beatbgp/internal/topology"
)

// maxASes is the dense-index capacity of the 20-bit next-hop field.
const maxASes = 1 << 20

// maxPathLen is the capacity of the 10-bit path-length field.
const maxPathLen = 1<<10 - 1

// Link declares one adjacency for a Graph built without a topology (the
// synthetic-scale benchmarks). For C2P, A is the customer, mirroring
// topology.Link. DistA/DistB are the geographic tie-break metrics of the
// link as seen from A and B respectively.
type Link struct {
	A, B         int
	Rel          topology.Rel
	DistA, DistB float64
}

// Graph is a topology lowered to dense arrays: a CSR adjacency list per
// AS with the decision process's inputs precomputed per directed edge.
type Graph struct {
	n   int
	asn []int32

	adjOff   []int32   // n+1 offsets into the adjacency arrays
	adjCore  []int32   // per AS, end of its non-stub neighbors; stub neighbors follow
	adjLink  []int32   // link ID
	adjOther []int32   // neighbor AS
	adjView  []uint8   // topology.RelView of the neighbor, from the owner
	adjDist  []float64 // geographic tie-break at the owner for this link
	adjRev   []int32   // index of the mirror adjacency in the neighbor's list

	// linkAdj maps link ID i to its two adjacency indices (2i at the
	// link's A side, 2i+1 at the B side), so delta repair can reach a
	// flapped link's endpoints without scanning the CSR.
	nLinks  int
	linkAdj []int32

	// Stub compression: classOf[v] >= 0 groups stubs (no customer-view
	// adjacencies) by identical (provider set, peer set) signature;
	// classes holds each class's members in ascending order. classOf is
	// also the graph's stubness test: v is a stub iff classOf[v] >= 0.
	classOf []int32
	classes [][]int32

	// colPool recycles column propagation scratch (colState).
	colPool sync.Pool
}

// FromTopo lowers a topology into a Graph, precomputing exactly the
// tie-break distances bgp's decision process would derive on the fly.
func FromTopo(t *topology.Topo) (*Graph, error) {
	n := t.NumASes()
	links := make([]Link, len(t.Links))
	for i, l := range t.Links {
		links[i] = Link{
			A: l.A, B: l.B, Rel: l.Rel,
			DistA: bgp.TieDistKm(t, l.A, l.ID),
			DistB: bgp.TieDistKm(t, l.B, l.ID),
		}
	}
	asn := make([]int, n)
	for i, a := range t.ASes {
		asn[i] = a.ASN
	}
	return New(n, asn, links)
}

// New builds a Graph from first principles: n ASes (dense IDs 0..n-1),
// their ASNs, and the link list in link-ID order. Links must connect
// distinct in-range ASes; link IDs are their indices in the slice,
// matching topology.Topo's dense link numbering.
func New(n int, asn []int, links []Link) (*Graph, error) {
	if n < 0 || n > maxASes {
		return nil, fmt.Errorf("matbgp: %d ASes exceeds the %d dense-index capacity", n, maxASes)
	}
	if len(asn) != n {
		return nil, fmt.Errorf("matbgp: %d ASNs for %d ASes", len(asn), n)
	}
	g := &Graph{n: n, asn: make([]int32, n)}
	for i, a := range asn {
		g.asn[i] = int32(a)
	}
	// Stubness first (an AS is a stub iff it is never the provider end
	// of a C2P link), then degree counts split by neighbor stubness, then
	// one CSR fill in link-ID order that writes each adjacency into its
	// AS's core part (non-stub neighbor) or stub part. Adjacency order
	// within a list does not decide any route: every choice is a minimum
	// under candLess or a (distance, link ID) key, and link IDs are
	// unique, so those orders are total.
	stub := make([]bool, n)
	for i := range stub {
		stub[i] = true
	}
	for i, l := range links {
		if l.A == l.B || l.A < 0 || l.B < 0 || l.A >= n || l.B >= n {
			return nil, fmt.Errorf("matbgp: link %d endpoints (%d,%d) invalid", i, l.A, l.B)
		}
		if l.Rel == topology.C2P {
			stub[l.B] = false
		}
	}
	coreDeg := make([]int32, n)
	stubDeg := make([]int32, n)
	count := func(v, other int) {
		if stub[other] {
			stubDeg[v]++
		} else {
			coreDeg[v]++
		}
	}
	for _, l := range links {
		count(l.A, l.B)
		count(l.B, l.A)
	}
	g.adjOff = make([]int32, n+1)
	g.adjCore = make([]int32, n)
	for i := 0; i < n; i++ {
		g.adjCore[i] = g.adjOff[i] + coreDeg[i]
		g.adjOff[i+1] = g.adjCore[i] + stubDeg[i]
	}
	m := int(g.adjOff[n])
	g.adjLink = make([]int32, m)
	g.adjOther = make([]int32, m)
	g.adjView = make([]uint8, m)
	g.adjDist = make([]float64, m)
	g.adjRev = make([]int32, m)
	g.nLinks = len(links)
	g.linkAdj = make([]int32, 2*len(links))
	// coreDeg and stubDeg become the fill cursors of each AS's two parts.
	fillCore, fillStub := coreDeg, stubDeg
	copy(fillCore, g.adjOff[:n])
	copy(fillStub, g.adjCore)
	slot := func(v, other int) int32 {
		fill := fillCore
		if stub[other] {
			fill = fillStub
		}
		i := fill[v]
		fill[v]++
		return i
	}
	for i, l := range links {
		ia, ib := slot(l.A, l.B), slot(l.B, l.A)
		g.linkAdj[2*i], g.linkAdj[2*i+1] = ia, ib
		viewA, viewB := topology.ViewPeer, topology.ViewPeer
		if l.Rel == topology.C2P {
			viewA, viewB = topology.ViewProvider, topology.ViewCustomer
		}
		g.adjLink[ia], g.adjOther[ia], g.adjView[ia], g.adjDist[ia], g.adjRev[ia] =
			int32(i), int32(l.B), uint8(viewA), l.DistA, ib
		g.adjLink[ib], g.adjOther[ib], g.adjView[ib], g.adjDist[ib], g.adjRev[ib] =
			int32(i), int32(l.A), uint8(viewB), l.DistB, ia
	}
	g.compress(stub)
	g.colPool.New = func() any { return newColState(n) }
	return g, nil
}

// NumASes returns the AS count.
func (g *Graph) NumASes() int { return g.n }

// NumClasses returns the number of stub equivalence classes.
func (g *Graph) NumClasses() int { return len(g.classes) }

// ClassOf returns the stub class of an AS, or -1 for non-stubs.
func (g *Graph) ClassOf(as int) int { return int(g.classOf[as]) }

// ClassMembers returns the members of a stub class, ascending.
func (g *Graph) ClassMembers(class int) []int32 { return g.classes[class] }

// compress groups stubs — ASes with no customer-view adjacencies — by
// their deduplicated (neighbor, view) signature. Two stubs in one class
// see the same provider and peer AS sets; parallel-link multiplicity and
// per-link geography deliberately do not enter the signature, because no
// decision anywhere in a column depends on them except the link choice at
// the origin's direct adopters, which materialization recomputes per
// member. Members of a class are never adjacent to each other (a link
// between them would put each in the other's signature but not its own).
func (g *Graph) compress(stub []bool) {
	type pair struct {
		other int32
		view  uint8
	}
	g.classOf = make([]int32, g.n)
	bySig := make(map[string]int32)
	var sig []byte
	var pairs []pair
	for v := 0; v < g.n; v++ {
		g.classOf[v] = -1
		if !stub[v] {
			continue
		}
		// Signature: sorted distinct (neighbor, view) pairs.
		pairs = pairs[:0]
		for i := g.adjOff[v]; i < g.adjOff[v+1]; i++ {
			pairs = append(pairs, pair{g.adjOther[i], g.adjView[i]})
		}
		slices.SortFunc(pairs, func(a, b pair) int {
			if c := cmp.Compare(a.other, b.other); c != 0 {
				return c
			}
			return cmp.Compare(a.view, b.view)
		})
		sig = sig[:0]
		var last pair
		for i, p := range pairs {
			if i > 0 && p == last {
				continue
			}
			last = p
			sig = append(sig,
				byte(p.other), byte(p.other>>8), byte(p.other>>16), p.view)
		}
		id, ok := bySig[string(sig)]
		if !ok {
			id = int32(len(g.classes))
			bySig[string(sig)] = id
			g.classes = append(g.classes, nil)
		}
		g.classOf[v] = id
		g.classes[id] = append(g.classes[id], int32(v))
	}
}
