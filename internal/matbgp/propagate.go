package matbgp

import (
	"fmt"

	"beatbgp/internal/bgp"
	"beatbgp/internal/topology"
)

// Packed column word layout: bits 0..19 next hop, 20..29 path length,
// 30..31 relation class (bgp.Source values: origin=0, customer=1,
// peer=2, provider=3). A zero word (length 0) means unreachable.
const (
	nhBits  = 20
	nhMask  = 1<<nhBits - 1
	lenBits = 10
	lenMask = 1<<lenBits - 1
)

func packWord(rel uint8, ln, nh int32) uint32 {
	return uint32(nh) | uint32(ln)<<nhBits | uint32(rel)<<(nhBits+lenBits)
}

func unpackWord(w uint32) (rel uint8, ln, nh int32) {
	return uint8(w >> (nhBits + lenBits)), int32(w >> nhBits & lenMask), int32(w & nhMask)
}

// Relation classes during propagation, ordered like bgp.Source. relNone
// marks an unrouted AS.
const (
	relOrigin   = uint8(bgp.SrcOrigin)
	relCustomer = uint8(bgp.SrcCustomer)
	relPeer     = uint8(bgp.SrcPeer)
	relProvider = uint8(bgp.SrcProvider)
	relNone     = uint8(0xFF)
)

// cand is one route offer awaiting an adopter's decision. All fields are
// from the adopter's perspective; ln is the candidate's path length.
type cand struct {
	to, nh, link, asn, ln int32
	dist                  float64
}

// candLess orders same-length candidates by the decision process's
// tie-breaks: nearest interconnect, then lowest neighbor ASN, then lowest
// link ID (the reference engine's first-offered-wins order, since a
// pusher offers its parallel links in ascending link order).
func candLess(a, b cand) bool {
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	if a.asn != b.asn {
		return a.asn < b.asn
	}
	return a.link < b.link
}

// colState is the per-column propagation scratch; one word per AS plus
// the transient link/dist needed for wave selection. A fresh or reset
// state has every rel slot relNone, every mark slot -1 and empty
// candidate buffers, which is how column takes one from the Graph's
// pool and returns it. Delta repair keeps one per RepairScratch and
// resets the slots of each dirty set itself (repairSettle).
type colState struct {
	rel  []uint8
	ln   []int32
	nh   []int32
	link []int32

	// wave-selection scratch
	mark  []int32 // wave stamp of the pending candidate, -1 when none
	best  []cand  // best pending candidate at the stamped wave
	order []int32 // ASes with pending candidates, first-seen order

	// buckets holds pending candidates by path length; peerCands the
	// one-hop peer offers of phase 2.
	buckets   [][]cand
	peerCands []cand
}

func newColState(n int) *colState {
	s := &colState{
		rel:  make([]uint8, n),
		ln:   make([]int32, n),
		nh:   make([]int32, n),
		link: make([]int32, n),
		mark: make([]int32, n),
		best: make([]cand, n),
	}
	s.reset()
	return s
}

// reset returns the state to its between-uses invariant, whatever a
// (possibly failed) column left behind.
func (s *colState) reset() {
	for i := range s.rel {
		s.rel[i] = relNone
		s.mark[i] = -1
	}
	for i := range s.buckets {
		s.buckets[i] = s.buckets[i][:0]
	}
	s.order = s.order[:0]
	s.peerCands = s.peerCands[:0]
}

// enqueue files a candidate in the bucket of its path length.
func (s *colState) enqueue(c cand) {
	for int(c.ln) >= len(s.buckets) {
		s.buckets = append(s.buckets, nil)
	}
	s.buckets[c.ln] = append(s.buckets[c.ln], c)
}

// settleWaves drains the buckets in ascending length, settling each
// adopter on its best same-length candidate (newly settled ASes adopt
// rel) and calling push for it, which may enqueue longer candidates.
// Ascending waves let every adopter see all of its shortest offers
// before deciding, reproducing the reference fixpoint.
func (s *colState) settleWaves(rel uint8, push func(v int32) error) error {
	for wl := 0; wl < len(s.buckets); wl++ {
		pend := s.buckets[wl]
		if len(pend) == 0 {
			continue
		}
		s.order = s.order[:0]
		for _, c := range pend {
			if s.rel[c.to] != relNone {
				continue // settled at a shorter length or better class
			}
			if s.mark[c.to] != int32(wl) {
				s.mark[c.to] = int32(wl)
				s.best[c.to] = c
				s.order = append(s.order, c.to)
			} else if candLess(c, s.best[c.to]) {
				s.best[c.to] = c
			}
		}
		for _, to := range s.order {
			c := s.best[to]
			s.rel[to], s.ln[to], s.nh[to], s.link[to] = rel, c.ln, c.nh, c.link
			if err := push(to); err != nil {
				return err
			}
		}
		s.buckets[wl] = s.buckets[wl][:0]
	}
	return nil
}

// settlePeers settles every still-unrouted adopter of the gathered peer
// offers on its best by (length, distance, ASN, link): peer routes
// travel exactly one hop, so there are no waves.
func (s *colState) settlePeers() {
	s.order = s.order[:0]
	for _, c := range s.peerCands {
		if s.rel[c.to] != relNone {
			continue // customer routes and origins always beat peer offers
		}
		if s.mark[c.to] != -2 {
			s.mark[c.to] = -2
			s.best[c.to] = c
			s.order = append(s.order, c.to)
			continue
		}
		b := s.best[c.to]
		if c.ln != b.ln {
			if c.ln < b.ln {
				s.best[c.to] = c
			}
		} else if candLess(c, b) {
			s.best[c.to] = c
		}
	}
	for _, to := range s.order {
		c := s.best[to]
		s.rel[to], s.ln[to], s.nh[to], s.link[to] = relPeer, c.ln, c.nh, c.link
	}
	s.peerCands = s.peerCands[:0]
}

// errPathLen is the path-length capacity error, raised wherever a
// routed AS would extend its route (or, for a leaf, where it would have).
func errPathLen() error {
	return fmt.Errorf("matbgp: path length beyond %d hops", maxPathLen)
}

// column runs the three valley-free phases for one announcement set and
// returns the packed result, one word per AS. Errors match the reference
// engine's (bgp.ComputeWithout) byte for byte.
//
// Only the core propagates: pushes scan each AS's non-stub neighbors,
// so no leaf (non-origin stub) is ever offered, settled or pushed, and
// every leaf row is filled from the settled core afterwards.
func (g *Graph) column(anns []bgp.Announcement, down map[int]bool) ([]uint32, error) {
	if len(anns) == 0 {
		return nil, fmt.Errorf("bgp: no announcements")
	}
	s := g.colPool.Get().(*colState)
	defer func() {
		s.reset()
		g.colPool.Put(s)
	}()
	isDown := func(link int32) bool { return down != nil && down[int(link)] }
	// Origin-side selective announcement, keyed by origin AS.
	var suppress map[int32]map[int]bool
	suppressed := func(as, link int32) bool {
		if suppress == nil || s.rel[as] != relOrigin {
			return false
		}
		return suppress[as][int(link)]
	}

	for _, a := range anns {
		if a.Origin < 0 || a.Origin >= g.n {
			return nil, fmt.Errorf("bgp: origin %d out of range", a.Origin)
		}
		o := int32(a.Origin)
		if s.rel[o] != relNone {
			return nil, fmt.Errorf("bgp: duplicate origin %d", a.Origin)
		}
		ln := int32(1 + a.Prepend)
		if ln < 1 || ln > maxPathLen {
			return nil, fmt.Errorf("matbgp: origin %d prepend %d exceeds the %d-hop path capacity",
				a.Origin, a.Prepend, maxPathLen)
		}
		s.rel[o], s.ln[o], s.nh[o], s.link[o] = relOrigin, ln, o, -1
		if len(a.SuppressLinks) > 0 {
			if suppress == nil {
				suppress = make(map[int32]map[int]bool)
			}
			suppress[o] = a.SuppressLinks
		}
	}

	// pushView offers v's settled route to its core neighbors of the
	// given view, honoring origin-side suppression and failed links.
	pushView := func(v int32, view uint8) error {
		nl := s.ln[v] + 1
		if nl > maxPathLen {
			return errPathLen()
		}
		for i := g.adjOff[v]; i < g.adjCore[v]; i++ {
			if g.adjView[i] != view || isDown(g.adjLink[i]) || suppressed(v, g.adjLink[i]) {
				continue
			}
			s.enqueue(cand{
				to: g.adjOther[i], nh: v, link: g.adjLink[i], asn: g.asn[v], ln: nl,
				dist: g.adjDist[g.adjRev[i]],
			})
		}
		return nil
	}
	pushUp := func(v int32) error { return pushView(v, uint8(topology.ViewProvider)) }
	pushDown := func(v int32) error { return pushView(v, uint8(topology.ViewCustomer)) }

	// Phase 1 — customer routes flow upward, settling by path length.
	for _, a := range anns {
		if err := pushUp(int32(a.Origin)); err != nil {
			return nil, err
		}
	}
	if err := s.settleWaves(relCustomer, pushUp); err != nil {
		return nil, err
	}

	// Phase 2 — peer routes travel exactly one peer hop: collect every
	// offer from the customer-routed (and origin) ASes, then let each
	// unrouted core AS pick its best by (length, distance, ASN, link).
	for v := int32(0); v < int32(g.n); v++ {
		if s.rel[v] > relCustomer {
			continue
		}
		nl := s.ln[v] + 1
		if nl > maxPathLen {
			return nil, errPathLen()
		}
		for i := g.adjOff[v]; i < g.adjCore[v]; i++ {
			if g.adjView[i] != uint8(topology.ViewPeer) || isDown(g.adjLink[i]) || suppressed(v, g.adjLink[i]) {
				continue
			}
			s.peerCands = append(s.peerCands, cand{
				to: g.adjOther[i], nh: v, link: g.adjLink[i], asn: g.asn[v], ln: nl,
				dist: g.adjDist[g.adjRev[i]],
			})
		}
	}
	s.settlePeers()

	// Phase 3 — provider routes flow downward: every routed AS exports to
	// its customers, and newly routed customers keep pushing down.
	for v := int32(0); v < int32(g.n); v++ {
		if s.rel[v] == relNone {
			continue
		}
		if err := pushDown(v); err != nil {
			return nil, err
		}
	}
	if err := s.settleWaves(relProvider, pushDown); err != nil {
		return nil, err
	}

	col := make([]uint32, g.n)
	for v := 0; v < g.n; v++ {
		if s.rel[v] == relNone {
			continue
		}
		col[v] = packWord(s.rel[v], s.ln[v], s.nh[v])
	}
	// Leaf fill: every non-origin stub decides against the settled core.
	for v := int32(0); v < int32(g.n); v++ {
		if g.classOf[v] < 0 || s.rel[v] == relOrigin {
			continue
		}
		w, err := g.leafRow(v, col, down, suppress)
		if err != nil {
			return nil, err
		}
		col[v] = w
	}
	return col, nil
}

// leafRow decides a leaf's (non-origin stub's) best route against a
// column whose core words are settled, in one pass over its
// adjacencies: providers export everything, peers export customer-cone
// routes, failed links and origin-side suppressed links carry nothing,
// and the leaf picks by relation class, then length, then its own
// geographic tie-break, neighbor ASN, and link — the full decision
// process. A leaf never exports, so no other word depends on it. A
// routed leaf at the path-length capacity errors exactly as its push
// in a full propagation would.
func (g *Graph) leafRow(v int32, col []uint32, down map[int]bool, suppress map[int32]map[int]bool) (uint32, error) {
	var b cand
	bSrc := relNone
	for i := g.adjOff[v]; i < g.adjOff[v+1]; i++ {
		u := g.adjOther[i]
		if col[u] == 0 {
			continue
		}
		l := g.adjLink[i]
		if down != nil && down[int(l)] {
			continue
		}
		rel, ln, _ := unpackWord(col[u])
		if rel == relOrigin && suppress != nil && suppress[u][int(l)] {
			continue
		}
		var src uint8
		switch g.adjView[i] {
		case uint8(topology.ViewProvider):
			src = relProvider
		case uint8(topology.ViewPeer):
			if rel > relCustomer {
				continue
			}
			src = relPeer
		default: // a customer adjacency would make v a non-stub
			continue
		}
		c := cand{to: v, nh: u, link: l, asn: g.asn[u], ln: ln + 1, dist: g.adjDist[i]}
		switch {
		case bSrc == relNone:
		case src != bSrc:
			if src > bSrc {
				continue
			}
		case c.ln != b.ln:
			if c.ln > b.ln {
				continue
			}
		case !candLess(c, b):
			continue
		}
		b, bSrc = c, src
	}
	if bSrc == relNone {
		return 0, nil
	}
	if b.ln >= maxPathLen {
		return 0, errPathLen()
	}
	return packWord(bSrc, b.ln, b.nh), nil
}
