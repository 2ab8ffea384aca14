package main

import (
	"fmt"
	"math"
	"net/http"
	"runtime"
	"time"

	"beatbgp/internal/core"
	"beatbgp/internal/delta"
	"beatbgp/internal/serve"
	"beatbgp/internal/xrand"
)

// serve-steady: a warm daemon under an open-loop ladder of Poisson
// rates, ~70% /latency and ~30% /catchment over every prefix at a few
// instants of one epoch. The top step is above the daemon's capacity.
var steadyLadder = []float64{1000, 2000, 3000, 4000, 6000, 8000, 12000, 16000}

const (
	// steadyRef is the reference rate: cpu_us_per_query and the
	// printed latencies of serve-steady are taken at it.
	steadyRef = 3000
	// p99LimitMs and maxFailPct decide whether a ladder step is
	// sustained: p99 from due time within the limit and failed sends
	// (dropped, late, transport, non-200) within the share. A backlog
	// that keeps growing fills the client's waiting room and drops
	// requests; one that clears again does not. The limit is well above
	// the p99 noise floor of a shared 2-vCPU box (3-13 ms even at 1k q/s
	// in bad phases), so the step that fails is the one whose backlog
	// grows.
	p99LimitMs    = 50.0
	maxFailPct    = 0.1
	steadyInstant = 4
	// timelineRate is serve-timeline's offered rate, below serve-steady's
	// sustained rate so that repair work, not saturation, sets latency.
	timelineRate = 1000
	// checkSample is how many answers per stream are re-derived from an
	// independent library Server after the timed region.
	checkSample = 400
)

// stepDuration gives the reference step 40% of the budget, so its
// figures rest on tens of thousands of samples, and splits the rest
// evenly.
func stepDuration(budget time.Duration, rate float64) time.Duration {
	if rate == steadyRef {
		return budget * 4 / 10
	}
	return budget * 6 / 10 / time.Duration(len(steadyLadder)-1)
}

// steadyPlan fixes the epoch and instants of serve-steady: the middle
// epoch, and seeded instants inside it.
type steadyPlan struct {
	epoch    int
	instants []float64
}

func newSteadyPlan(w *core.World, seed uint64) steadyPlan {
	seq := w.Epochs
	e := seq.Len() / 2
	lo, hi := epochSpan(seq, e)
	rng := xrand.Derive(seed, 0x1257)
	p := steadyPlan{epoch: e}
	for i := 0; i < steadyInstant; i++ {
		p.instants = append(p.instants, rng.Uniform(lo, hi))
	}
	return p
}

func (p steadyPlan) stream(w *core.World, seed uint64, salt uint64, rate float64, dur time.Duration) []query {
	rng := xrand.Derive(seed, 0x57EAD, salt)
	n := len(w.Topo.Prefixes)
	var qs []query
	poisson(rng, rate, dur, func(due time.Duration) {
		q := query{kind: kLatency, prefix: rng.Intn(n), due: due, epoch: p.epoch}
		if rng.Bool(0.3) {
			q.kind = kCatchment
		} else {
			q.t = p.instants[rng.Intn(len(p.instants))]
		}
		qs = append(qs, q)
	})
	return qs
}

// warmQueries position every origin chain and the anycast chain at
// the plan's epoch and touch every (prefix, instant).
func (p steadyPlan) warmQueries(w *core.World) []query {
	var qs []query
	for i := range w.Topo.Prefixes {
		for _, t := range p.instants {
			qs = append(qs, query{kind: kLatency, prefix: i, t: t})
		}
		qs = append(qs, query{kind: kCatchment, prefix: i, epoch: p.epoch})
	}
	return qs
}

// timelineStream draws serve-timeline's queries: instants across every
// epoch in seeded random order, ~60% latency, ~27% catchment, ~10%
// what-if and ~3% epoch sets.
func timelineStream(w *core.World, seed uint64, rate float64, dur time.Duration) []query {
	rng := xrand.Derive(seed, 0x71E1)
	seq := w.Epochs
	n, nLinks := len(w.Topo.Prefixes), len(w.Topo.Links)
	var qs []query
	poisson(rng, rate, dur, func(due time.Duration) {
		e := rng.Intn(seq.Len())
		lo, hi := epochSpan(seq, e)
		q := query{prefix: rng.Intn(n), epoch: e, t: rng.Uniform(lo, hi), due: due}
		switch r := rng.Float64(); {
		case r < 0.60:
			q.kind = kLatency
		case r < 0.87:
			q.kind = kCatchment
		case r < 0.97:
			q.kind = kWhatIf
			q.whatif = serve.WhatIfReq{Kind: "latency", Prefix: q.prefix, TMin: q.t}
			if rng.Bool(0.5) {
				q.whatif = serve.WhatIfReq{Kind: "catchment", Prefix: q.prefix}
			}
			// One or two deltas, each taking down one or two links
			// that no earlier delta of the query took down.
			used := map[int]bool{}
			for k := 1 + rng.Intn(2); k > 0; k-- {
				var d delta.Delta
				for j := 1 + rng.Intn(2); j > 0; j-- {
					l := rng.Intn(nLinks)
					for used[l] {
						l = rng.Intn(nLinks)
					}
					used[l] = true
					d.Down = append(d.Down, l)
				}
				q.whatif.Deltas = append(q.whatif.Deltas, d.Normalize())
			}
		default:
			q.kind = kEpoch
		}
		qs = append(qs, q)
	})
	return qs
}

func hashQueries(h *scheduleHash, label string, qs []query) {
	for i := range qs {
		q := &qs[i]
		h.add(label, q.due.Nanoseconds(), q.kind, q.prefix, q.t, q.epoch, q.whatif.Kind, q.whatif.Deltas)
	}
}

// setupTimes are the set-up measurements of a serve workload: each
// set-up's wall time, and each build stage's and freeze's time.
type setupTimes struct {
	total, freeze []float64
	stages        map[string][]float64
}

// setupStacks builds setupReps listening stacks, each warmed with the
// queries warm returns for its world (set-up is reported as their
// median), keeps the last and shuts the others down.
func setupStacks(warm func(w *core.World) []query) (*serveStack, setupTimes, error) {
	times := setupTimes{stages: map[string][]float64{}}
	var keep *serveStack
	for i := 0; i < setupReps; i++ {
		runtime.GC() // start from a collected heap, as a fresh process does
		t0 := time.Now()
		st, err := buildServeStack(true)
		if err != nil {
			return nil, times, err
		}
		if warm != nil {
			libReplay(st.srv, warm(st.w))
		}
		times.total = append(times.total, time.Since(t0).Seconds())
		times.freeze = append(times.freeze, st.freeze)
		for k, v := range st.stages {
			times.stages[k] = append(times.stages[k], v)
		}
		if keep != nil {
			keep.close()
		}
		keep = st
	}
	return keep, times, nil
}

// failedLatency stands for the latency of a failed request: larger than
// any limit, and finite so that percentiles interpolate and encode.
const failedLatency = math.MaxFloat64

// stepStats summarises one open-loop stream.
type stepStats struct {
	Rate       float64 `json:"rate"`
	Offered    int     `json:"offered"`
	Sent       int     `json:"sent"`
	Dropped    int     `json:"dropped"`
	Late       int     `json:"late"`
	Transport  int     `json:"transport"`
	BadStatus  int     `json:"bad_status"`
	P50Ms      float64 `json:"p50_ms"`
	P99Ms      float64 `json:"p99_ms"`
	P90Ms      float64 `json:"p90_ms"`
	CPUUs      float64 `json:"cpu_us_per_query"`
	LateP99Ms  float64 `json:"late_p99_ms"`
	BacklogMax int     `json:"backlog_max"`
	BacklogEnd int     `json:"backlog_end"`
	Sustained  bool    `json:"sustained"`
}

func (s *stepStats) note() string {
	ms := func(v float64) string {
		if v > failedLatency/4 { // interpolated with a failed request
			return "failed"
		}
		return fmt.Sprintf("%.3f", v)
	}
	return fmt.Sprintf("rate=%g offered=%d sent=%d failed=%d p50_ms=%s p90_ms=%s p99_ms=%s late_p99_ms=%s cpu_us_per_query=%.1f backlog_end=%d sustained=%v",
		s.Rate, s.Offered, s.Sent, s.failed(), ms(s.P50Ms), ms(s.P90Ms), ms(s.P99Ms), ms(s.LateP99Ms), s.CPUUs, s.BacklogEnd, s.Sustained)
}

func (s *stepStats) failed() int { return s.Dropped + s.Late + s.Transport + s.BadStatus }

// summarise computes latency from due time over a stream's outcomes; a
// failed request counts as exceeding every limit.
func summarise(rate float64, qs []query, out []outcome, ls loopStats) stepStats {
	s := stepStats{Rate: rate, Offered: len(qs), BacklogMax: ls.backlogMax, BacklogEnd: ls.backlogEnd}
	var lat, late []float64
	for i := range out {
		o := &out[i]
		switch {
		case o.dropped:
			s.Dropped++
		case o.late:
			s.Late++
		case o.transport:
			s.Sent++
			s.Transport++
		default:
			s.Sent++
			if o.status != http.StatusOK && o.status != http.StatusBadRequest {
				s.BadStatus++
			}
		}
		if o.ok() && o.status != 0 && (o.status == http.StatusOK || o.status == http.StatusBadRequest) {
			lat = append(lat, float64(o.done-qs[i].due)/1e6)
		} else {
			lat = append(lat, failedLatency)
		}
		if !o.dropped && !o.late {
			late = append(late, float64(o.sent-qs[i].due)/1e6)
		}
	}
	s.P50Ms = windowed(qs, lat, 0.50)
	s.P90Ms = windowed(qs, lat, 0.90)
	s.P99Ms = windowed(qs, lat, 0.99)
	s.LateP99Ms = quantile(late, 0.99)
	s.Sustained = s.P99Ms <= p99LimitMs && 100*float64(s.failed()) <= maxFailPct*float64(s.Offered)
	return s
}

// latWindow is the width of the windows latency percentiles are taken
// over: at the reference rate a window holds ~1,500 samples, so its p99
// has ten or more beyond it.
const latWindow = 500 * time.Millisecond

// windowed is the median over consecutive windows (by due time) of each
// window's q-quantile: a disturbed half second, such as a neighbour's
// burst on a shared box or a stall that builds a short backlog, moves it
// by one rank instead of setting it. lat[i] is query i's latency.
func windowed(qs []query, lat []float64, q float64) float64 {
	var qs1, win []float64
	end := latWindow
	for i := range qs {
		for qs[i].due >= end {
			if len(win) > 0 {
				qs1 = append(qs1, quantile(win, q))
				win = win[:0]
			}
			end += latWindow
		}
		win = append(win, lat[i])
	}
	if len(win) > 0 {
		qs1 = append(qs1, quantile(win, q))
	}
	return median(qs1)
}

// repeatShare is the share of chain reads (latency and catchment
// queries) whose (chain, epoch) already appeared earlier in the run,
// warm-up included; the anycast chain is chain -1.
func repeatShare(w *core.World, seen map[[2]int]bool, qs []query) float64 {
	var reads, repeats int
	for i := range qs {
		q := &qs[i]
		var key [2]int
		switch q.kind {
		case kLatency:
			key = [2]int{w.Topo.Prefixes[q.prefix].Origin, w.Epochs.At(q.t)}
		case kCatchment:
			key = [2]int{-1, q.epoch}
		default:
			continue
		}
		reads++
		if seen[key] {
			repeats++
		}
		seen[key] = true
	}
	if reads == 0 {
		return 0
	}
	return float64(repeats) / float64(reads)
}

// libReplay answers every query through the library.
func libReplay(srv *serve.Server, qs []query) {
	for i := range qs {
		libAnswer(srv, &qs[i])
	}
}

func runServeSteady(a runArgs) (*result, error) {
	res := newResult()
	var plan steadyPlan
	warm := func(w *core.World) []query {
		plan = newSteadyPlan(w, a.seed)
		return plan.warmQueries(w)
	}
	st, setup, err := setupStacks(warm)
	if err != nil {
		return nil, err
	}
	defer st.close()
	sched := newScheduleHash(a.workload)
	sched.add(st.w.Key, plan.epoch, plan.instants)
	seen := map[[2]int]bool{}
	warmQs := plan.warmQueries(st.w)
	repeatShare(st.w, seen, warmQs)

	// Connection and code-path warm-up, not measured.
	openLoop(st.addr, plan.stream(st.w, a.seed, 99, 1000, 500*time.Millisecond), nil)

	if a.trace {
		qs := plan.stream(st.w, a.seed, steadyRef, steadyRef, a.budget/2)
		hashQueries(sched, "ref", qs)
		res.Schedule = sched.String()
		return res, traceServe(a, res, st, qs, setup, repeatShare(st.w, seen, qs), warmQs)
	}

	ind := serve.New(st.w)
	heap := startHeapPeak()
	var steps []stepStats
	var ref stepStats
	maxQPS := 0.0
	for _, rate := range steadyLadder {
		qs := plan.stream(st.w, a.seed, uint64(rate), rate, stepDuration(a.budget, rate))
		hashQueries(sched, fmt.Sprint(rate), qs)
		runtime.GC()
		cpu0 := cpuTime()
		out, ls := openLoop(st.addr, qs, nil)
		s := summarise(rate, qs, out, ls)
		s.CPUUs = float64(cpuTime()-cpu0) / 1e3 / float64(max(s.Sent, 1))
		steps = append(steps, s)
		res.Notes = append(res.Notes, s.note())
		if rate == steadyRef {
			ref = s
			res.Detail["repeat_share"] = repeatShare(st.w, seen, qs)
		}
		if s.Sustained && rate > maxQPS {
			maxQPS = rate
		}
		// Capacity probing: above the reference rate, shed sends are the
		// measured outcome; at or below it, and for every sent request,
		// a failure is a failure.
		res.Attempted += s.Sent
		res.Failed += s.Transport + s.BadStatus
		if rate <= steadyRef {
			res.Attempted += s.Dropped + s.Late
			res.Failed += s.Dropped + s.Late
		}
		res.Attempted += checkAnswers(res, ind, qs, out, a.seed^uint64(rate), checkSample)
	}
	peak := heap.Stop()
	res.Schedule = sched.String()
	res.Detail["ladder"] = steps
	res.set("setup_s", median(setup.total), "s")
	res.Notes = append(res.Notes, fmt.Sprintf("max_qps=%g (highest sustained ladder rate)", maxQPS))
	res.Detail["max_qps"] = maxQPS
	// One operation is one request sent at the reference rate.
	res.set("cpu_us_per_op", ref.CPUUs, "us")
	res.set("peak_heap_mb", peak, "MB")
	return res, nil
}

func runServeTimeline(a runArgs) (*result, error) {
	res := newResult()
	st, setup, err := setupStacks(nil)
	if err != nil {
		return nil, err
	}
	defer st.close()
	sched := newScheduleHash(a.workload)
	sched.add(st.w.Key)
	dur := a.budget
	if a.trace {
		dur = a.budget / 2
	}
	qs := timelineStream(st.w, a.seed, timelineRate, dur)
	hashQueries(sched, "timeline", qs)
	res.Schedule = sched.String()
	share := repeatShare(st.w, map[[2]int]bool{}, qs)
	if a.trace {
		return res, traceServe(a, res, st, qs, setup, share, nil)
	}

	heap := startHeapPeak()
	runtime.GC()
	cpu0 := cpuTime()
	out, ls := openLoop(st.addr, qs, nil)
	cpu := cpuTime() - cpu0
	peak := heap.Stop()
	s := summarise(timelineRate, qs, out, ls)
	s.CPUUs = float64(cpu) / 1e3 / float64(max(s.Sent, 1))
	res.Attempted += s.Offered
	res.Failed += s.failed()
	res.Attempted += checkAnswers(res, serve.New(st.w), qs, out, a.seed, checkSample)
	res.Detail["stream"] = s
	res.Notes = append(res.Notes, s.note())
	res.Detail["repeat_share"] = share
	res.set("setup_s", median(setup.total), "s")
	// One operation is one request sent.
	res.set("cpu_us_per_op", s.CPUUs, "us")
	res.set("peak_heap_mb", peak, "MB")
	return res, nil
}
