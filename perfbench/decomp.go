package main

import (
	"context"
	"fmt"
	"sort"

	"beatbgp/internal/bgp"
	"beatbgp/internal/core"
	"beatbgp/internal/delta"
	"beatbgp/internal/serve"
	"beatbgp/internal/topology"
)

// decomposer answers serve queries by calling the layers' public
// functions in the order serve.Server does, with a span around each
// call. Its answers must be byte-identical to the library's; a
// difference means the decomposition no longer mirrors the server and
// its per-layer numbers cannot be trusted.
type decomposer struct {
	w      *core.World
	tr     *tracer
	chains map[int]*decompChain
	// Counters at the layer boundaries.
	latencyAnswers int // latency answers, nested what-if ones included
}

type decompChain struct {
	rep  bgp.RouteRepairer
	at   int
	ribs map[int]*bgp.RIB
}

func newDecomposer(w *core.World, tr *tracer) *decomposer {
	return &decomposer{w: w, tr: tr, chains: map[int]*decompChain{}}
}

func badQuery(format string, args ...any) error {
	return fmt.Errorf("%w: %s", serve.ErrBadQuery, fmt.Sprintf(format, args...))
}

// answer returns the status and body for q; req is the span request id.
func (d *decomposer) answer(q *query, req int) (int, []byte) {
	root := d.tr.begin("serve.decomposed", -1, req)
	defer d.tr.end(root)
	var v any
	var err error
	switch q.kind {
	case kLatency:
		v, err = d.latency(q, root, req)
	case kCatchment:
		v, err = d.catchment(q, root, req)
	case kWhatIf:
		v, err = d.whatIf(q, root, req)
	default:
		v, err = d.epoch(q.epoch)
	}
	sp := d.tr.begin("serve.encode", root, req)
	defer d.tr.end(sp)
	return encodeAnswer(v, err)
}

// egressRIB mirrors the server's per-origin repair chain: StartRepair
// and epoch 0's delta on first use, then Apply steps forward or back to
// the epoch, with RIB() memoised per (origin, epoch).
func (d *decomposer) egressRIB(origin, epoch, parent, req int) (*bgp.RIB, error) {
	ch := d.chains[origin]
	if ch == nil {
		ch = &decompChain{ribs: map[int]*bgp.RIB{}}
		d.chains[origin] = ch
	}
	if rib := ch.ribs[epoch]; rib != nil {
		return rib, nil
	}
	seq := d.w.Epochs
	if ch.rep == nil {
		sp := d.tr.begin("bgp.start_repair", parent, req)
		rep, err := bgp.StartRepair(d.w.Routes, []bgp.Announcement{{Origin: origin}})
		d.tr.end(sp)
		if err != nil {
			return nil, err
		}
		if err := d.apply(rep, seq.Epoch(0).Delta, parent, req); err != nil {
			return nil, err
		}
		ch.rep, ch.at = rep, 0
	}
	for ch.at < epoch {
		if err := d.apply(ch.rep, seq.Epoch(ch.at+1).Delta, parent, req); err != nil {
			return nil, err
		}
		ch.at++
	}
	for ch.at > epoch {
		if err := d.apply(ch.rep, seq.Epoch(ch.at).Delta.Invert(), parent, req); err != nil {
			return nil, err
		}
		ch.at--
	}
	sp := d.tr.begin("bgp.rib", parent, req)
	rib, err := ch.rep.RIB()
	d.tr.end(sp)
	if err != nil {
		return nil, err
	}
	ch.ribs[epoch] = rib
	return rib, nil
}

func (d *decomposer) apply(rep bgp.RouteRepairer, dl delta.Delta, parent, req int) error {
	sp := d.tr.begin("bgp.apply", parent, req)
	defer d.tr.end(sp)
	return bgp.ApplyContext(context.Background(), rep, dl)
}

func (d *decomposer) latency(q *query, parent, req int) (any, error) {
	p := d.w.Topo.Prefixes[q.prefix]
	epoch := d.w.Epochs.At(q.t)
	rib, err := d.egressRIB(p.Origin, epoch, parent, req)
	if err != nil {
		return nil, err
	}
	return d.latencyVia(rib, p, q.t, epoch, parent, req)
}

// latencyVia mirrors the server's option measurement: egress options
// at the serving PoP, each resolved pinned to the PoP and timed by the
// congestion model.
func (d *decomposer) latencyVia(rib *bgp.RIB, p topology.Prefix, t float64, epoch, parent, req int) (serve.LatencyResp, error) {
	d.latencyAnswers++
	w := d.w
	pop := w.Prov.ServingPoP(p.City)
	sp := d.tr.begin("provider.egress_options", parent, req)
	opts := w.Prov.EgressOptions(rib, pop)
	d.tr.end(sp)
	var obs []serve.EgressObs
	for _, opt := range opts {
		sp := d.tr.begin("netpath.resolve_pinned", parent, req)
		phys, err := w.Res.ResolvePinned(opt.Route, pop, p.City, pop)
		d.tr.end(sp)
		if err != nil {
			continue
		}
		sp = d.tr.begin("netsim.route_rtt", parent, req)
		rtt := w.Sim.RouteRTTMs(phys, p, t)
		d.tr.end(sp)
		obs = append(obs, serve.EgressObs{
			Link:     opt.Link,
			Neighbor: opt.Neighbor,
			Class:    opt.Class.String(),
			PathLen:  opt.Route.PathLen(),
			RTTMs:    rtt,
		})
	}
	if len(obs) == 0 {
		return serve.LatencyResp{}, badQuery("prefix %d: no resolvable egress route at PoP city %d", p.ID, pop)
	}
	resp := serve.LatencyResp{
		Query:     "latency",
		World:     w.Key,
		Prefix:    p.ID,
		TMin:      t,
		Epoch:     epoch,
		PoPCity:   pop,
		Options:   len(obs),
		Preferred: obs[0],
	}
	for i := 1; i < len(obs); i++ {
		if resp.BestAlt == nil || obs[i].RTTMs < resp.BestAlt.RTTMs {
			alt := obs[i]
			resp.BestAlt = &alt
		}
	}
	if resp.BestAlt != nil {
		resp.DeltaMs = resp.Preferred.RTTMs - resp.BestAlt.RTTMs
	}
	return resp, nil
}

func (d *decomposer) catchment(q *query, parent, req int) (any, error) {
	sp := d.tr.begin("cdn.anycast_rib_at", parent, req)
	rib, err := d.w.CDN.AnycastRIBAt(q.epoch)
	d.tr.end(sp)
	if err != nil {
		return nil, err
	}
	return d.catchmentVia(rib, d.w.Topo.Prefixes[q.prefix], q.epoch, parent, req)
}

func (d *decomposer) catchmentVia(rib *bgp.RIB, p topology.Prefix, epoch, parent, req int) (serve.CatchmentResp, error) {
	sp := d.tr.begin("cdn.phys_via_rib", parent, req)
	_, site, err := d.w.CDN.PhysViaRIB(rib, p)
	d.tr.end(sp)
	if err != nil {
		return serve.CatchmentResp{}, badQuery("prefix %d: %v", p.ID, err)
	}
	st := d.w.CDN.Sites[site]
	return serve.CatchmentResp{
		Query:    "catchment",
		World:    d.w.Key,
		Prefix:   p.ID,
		Epoch:    epoch,
		Site:     site,
		SiteASN:  st.AS.ASN,
		SiteCity: st.City,
	}, nil
}

// whatIf mirrors the server's scratch chain: a private repairer per
// query, never memoised.
func (d *decomposer) whatIf(q *query, parent, req int) (any, error) {
	r := q.whatif
	p := d.w.Topo.Prefixes[r.Prefix]
	var anns []bgp.Announcement
	if r.Kind == "catchment" {
		anns = d.w.CDN.Announcements(nil)
	} else {
		anns = []bgp.Announcement{{Origin: p.Origin}}
	}
	sp := d.tr.begin("bgp.start_repair", parent, req)
	rep, err := bgp.StartRepair(d.w.Routes, anns)
	d.tr.end(sp)
	if err != nil {
		return nil, err
	}
	down := map[int]bool{}
	for _, dl := range r.Deltas {
		if err := d.apply(rep, dl, parent, req); err != nil {
			return nil, err
		}
		down = delta.Apply(down, dl)
	}
	sp = d.tr.begin("bgp.rib", parent, req)
	rib, err := rep.RIB()
	d.tr.end(sp)
	if err != nil {
		return nil, err
	}
	links := make([]int, 0, len(down))
	for l, v := range down {
		if v {
			links = append(links, l)
		}
	}
	sort.Ints(links)
	resp := serve.WhatIfResp{Query: "whatif", World: d.w.Key, Kind: r.Kind, Down: links}
	if r.Kind == "catchment" {
		c, err := d.catchmentVia(rib, p, -1, parent, req)
		if err != nil {
			return nil, err
		}
		resp.Catchment = &c
		return resp, nil
	}
	l, err := d.latencyVia(rib, p, r.TMin, -1, parent, req)
	if err != nil {
		return nil, err
	}
	resp.Latency = &l
	return resp, nil
}

// epoch mirrors the cursor endpoint for an absolute set, whose answer
// does not depend on the cursor's previous position.
func (d *decomposer) epoch(e int) (any, error) {
	seq := d.w.Epochs
	if e < 0 || e >= seq.Len() {
		return nil, badQuery("epoch %d out of range [0,%d)", e, seq.Len())
	}
	start, end := epochSpan(seq, e)
	return serve.EpochResp{
		Query:    "epoch",
		World:    d.w.Key,
		Epoch:    e,
		Epochs:   seq.Len(),
		StartMin: start,
		EndMin:   end,
		Down:     append([]int{}, seq.Epoch(e).Down...),
	}, nil
}
