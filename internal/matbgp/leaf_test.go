package matbgp

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"beatbgp/internal/bgp"
	"beatbgp/internal/delta"
	"beatbgp/internal/topology"
)

// TestLeafEdgeCases pins the leaf fill — a non-origin stub's row decided
// after the core settles — on the shapes where it must see more than its
// neighbors' words: a stub peering with an origin stub, an origin
// suppressing its link to a stub customer, a failed stub uplink beside a
// live parallel link to the same provider, and the path-length capacity
// reached only at a leaf. Each case runs through a fresh column and
// through a repair chain that reaches the case's down set and leaves it
// again; routes and offers must match the reference, errors the
// propagation's text.
func TestLeafEdgeCases(t *testing.T) {
	topo, addAS, connect := handTopo(t)
	link := func(a, b int, rel topology.Rel) int {
		connect(a, b, rel)
		return len(topo.Links) - 1
	}
	t1a := addAS(100, []string{"London", "Paris", "NewYork"})
	t1b := addAS(101, []string{"London", "Frankfurt", "NewYork"})
	link(t1a, t1b, topology.P2P)
	tr1 := addAS(200, []string{"London", "Paris", "Amsterdam"})
	tr2 := addAS(201, []string{"Frankfurt", "London", "Vienna"})
	link(tr1, t1a, topology.C2P)
	link(tr2, t1b, topology.C2P)
	// Stubs sA and sB under tr1 peer with each other; sC under tr2
	// peers with sB.
	sA := addAS(300, []string{"London", "Manchester"})
	sB := addAS(301, []string{"Paris", "London"})
	sC := addAS(302, []string{"Vienna", "Frankfurt", "London"})
	link(sA, tr1, topology.C2P)
	link(sB, tr1, topology.C2P)
	link(sC, tr2, topology.C2P)
	peerAB := link(sA, sB, topology.P2P)
	link(sC, sB, topology.P2P)
	// sS is dual-homed; tr1 may suppress its link to it.
	sS := addAS(303, []string{"London", "Frankfurt"})
	toS := link(sS, tr1, topology.C2P)
	link(sS, tr2, topology.C2P)
	// sP has two parallel links to tr2 and one to tr1.
	sP := addAS(304, []string{"London", "Frankfurt", "Vienna"})
	par1 := link(sP, tr2, topology.C2P)
	par2 := link(sP, tr2, topology.C2P)
	link(sP, tr1, topology.C2P)
	// x's only neighbor is its stub customer sX: with enough prepending,
	// only the leaf reaches the path-length capacity.
	x := addAS(400, []string{"Madrid", "Milan"})
	sX := addAS(401, []string{"Milan"})
	link(sX, x, topology.C2P)

	eng, err := NewEngine(topo)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []int{sA, sB, sC, sS, sP, sX} {
		if eng.Graph().ClassOf(v) < 0 {
			t.Fatalf("AS %d should be a stub", v)
		}
	}
	ref := bgp.NewReference(topo)
	capErr := fmt.Sprintf("matbgp: path length beyond %d hops", maxPathLen)
	cases := []struct {
		name    string
		anns    []bgp.Announcement
		down    []int
		wantErr string
	}{
		{name: "stub peers with origin stub", anns: []bgp.Announcement{{Origin: sA}}},
		{name: "stub peering down", anns: []bgp.Announcement{{Origin: sA}}, down: []int{peerAB}},
		{name: "anycast stub origins", anns: []bgp.Announcement{{Origin: sA}, {Origin: sC, Prepend: 1}}},
		{name: "origin suppresses stub link",
			anns: []bgp.Announcement{{Origin: tr1, SuppressLinks: map[int]bool{toS: true}}}},
		{name: "parallel uplink 1 down", anns: []bgp.Announcement{{Origin: t1b}}, down: []int{par1}},
		{name: "parallel uplink 2 down", anns: []bgp.Announcement{{Origin: t1b}}, down: []int{par2}},
		{name: "leaf below capacity", anns: []bgp.Announcement{{Origin: x, Prepend: maxPathLen - 3}}},
		{name: "leaf at capacity", anns: []bgp.Announcement{{Origin: x, Prepend: maxPathLen - 2}}, wantErr: capErr},
	}
	for _, c := range cases {
		var down map[int]bool
		for _, l := range c.down {
			if down == nil {
				down = map[int]bool{}
			}
			down[l] = true
		}
		got, err := eng.ComputeWithout(c.anns, down)
		rr, rerr := eng.StartRepair(c.anns)
		if c.wantErr != "" {
			if err == nil || err.Error() != c.wantErr || rerr == nil || rerr.Error() != c.wantErr {
				t.Fatalf("%s: want error %q, got column %v, repair %v", c.name, c.wantErr, err, rerr)
			}
			continue
		}
		if err != nil || rerr != nil {
			t.Fatalf("%s: column %v, repair %v", c.name, err, rerr)
		}
		want, err := ref.ComputeWithout(c.anns, down)
		if err != nil {
			t.Fatalf("%s: reference: %v", c.name, err)
		}
		requireSameRIB(t, topo, want, got, c.name)
		for _, step := range []struct {
			d    delta.Delta
			down map[int]bool
		}{{delta.Delta{Down: c.down}, down}, {delta.Delta{Up: c.down}, nil}} {
			if err := rr.Apply(step.d); err != nil {
				t.Fatalf("%s: apply %v: %v", c.name, step.d, err)
			}
			rib, err := rr.RIB()
			if err != nil {
				t.Fatalf("%s: repaired RIB: %v", c.name, err)
			}
			want, err := ref.ComputeWithout(c.anns, step.down)
			if err != nil {
				t.Fatalf("%s: reference: %v", c.name, err)
			}
			requireSameRIB(t, topo, want, rib, fmt.Sprintf("%s after %v", c.name, step.d))
		}
	}
}

// internetPinnedSum is the checksum TestInternetScaleColumnsPinned pins:
// 64 synthWorld columns and their words through one seeded flap cycle
// each. It was taken from a propagation that still pushed every column
// to every stub, so it holds the leaf fill and leaf refill to the
// unelided answer; any change to propagation or repair must leave it
// unchanged.
const internetPinnedSum = "046986dacb7cfdcd"

// TestInternetScaleColumnsPinned pins packed columns at internet scale:
// the first 32 non-stub origins and the first 32 stub-class
// representatives of the 100k-AS synthWorld, each hashed fresh and then
// after every step of one seeded flap cycle applied through a Repairer
// (a tier-1 peering, a random transit uplink, the uplink above the
// origin, a random stub uplink and, for a stub origin, its own uplink).
func TestInternetScaleColumnsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-AS world; skipped under -short")
	}
	const nTier1, nTransit, nStub = 10, 500, 100000 - 510
	n, asn, links := synthWorld(nTier1, nTransit, nStub)
	g, err := New(n, asn, links)
	if err != nil {
		t.Fatal(err)
	}
	var origins []int
	for v := 0; v < n && len(origins) < 32; v++ {
		if g.ClassOf(v) < 0 {
			origins = append(origins, v)
		}
	}
	for c := 0; c < 32; c++ {
		origins = append(origins, int(g.ClassMembers(c)[0]))
	}
	// synthWorld's link layout: the tier-1 mesh, then two uplinks per
	// transit, then two per stub.
	nPeer := nTier1 * (nTier1 - 1) / 2
	stubLinks := nPeer + 2*nTransit
	rng := rand.New(rand.NewSource(42))
	sc := g.NewRepairScratch()
	h := fnv.New64a()
	sum := func(o, step int, col []uint32) {
		var b [4]byte
		fmt.Fprintf(h, "%d:%d:", o, step)
		for _, w := range col {
			b[0], b[1], b[2], b[3] = byte(w), byte(w>>8), byte(w>>16), byte(w>>24)
			h.Write(b[:])
		}
	}
	for _, o := range origins {
		r, err := g.NewRepairer([]bgp.Announcement{{Origin: o}}, nil)
		if err != nil {
			t.Fatalf("origin %d: %v", o, err)
		}
		r.WithScratch(sc)
		sum(o, 0, r.Column())
		peer := rng.Intn(nPeer)
		transit := nPeer + rng.Intn(2*nTransit)
		stub := stubLinks + rng.Intn(2*nStub)
		above, own := transit, stub
		switch {
		case o < nTier1:
		case o < nTier1+nTransit:
			above = nPeer + 2*(o-nTier1)
		default:
			own = stubLinks + 2*(o-nTier1-nTransit)
			above = nPeer + 2*(links[own].B-nTier1)
		}
		cycle := []delta.Delta{
			{Down: []int{peer, transit, above}},
			{Down: []int{stub, own}, Up: []int{peer}},
			{Up: []int{transit, above, stub, own}},
		}
		for step, d := range cycle {
			if err := r.Apply(d); err != nil {
				t.Fatalf("origin %d step %d: %v", o, step, err)
			}
			sum(o, step+1, r.Column())
		}
	}
	if got := fmt.Sprintf("%016x", h.Sum64()); got != internetPinnedSum {
		t.Fatalf("internet-scale column checksum %s, pinned %s", got, internetPinnedSum)
	}
}
