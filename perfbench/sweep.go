package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"beatbgp/internal/core"
	"beatbgp/internal/netpath"
	"beatbgp/internal/topology"
	"beatbgp/internal/xrand"
)

// sweepIDs is the researcher's figure run, in its fixed order: fig1
// pays the shared ten-day trace because it runs first.
var sweepIDs = []string{"fig1", "fig2", "fig3", "fig4", "fig5", "xgroom", "xfaults"}

// sweepPinned holds each experiment's Render() digest at seed 42.
var sweepPinned = map[string]string{
	"fig1":    "1ea83b8f7a626d69",
	"fig2":    "270ab0ef29a9e2b4",
	"fig3":    "d6e2a5c5cc80f034",
	"fig4":    "a1c6180f9d2d1a4f",
	"fig5":    "846e0a0f13cef7e0",
	"xgroom":  "36b5276d001411bc",
	"xfaults": "021c97c898cbf294",
}

// sweepConfig is the sweep's world: the default world's topology,
// provider, CDN and DNS (their cost sets the sweep's cost), with the
// congestion simulator and workload draws keyed by --seed. Seed 42 is
// exactly the default world.
func sweepConfig(seed uint64) core.Config {
	cfg := core.Config{Seed: 42}
	cfg.Net.Seed = seed + 4
	cfg.Workload.Seed = seed + 5
	return cfg
}

// sweepRun is one fresh world plus the seven experiments.
type sweepRun struct {
	wall    time.Duration
	cpu     time.Duration
	digests map[string]string
	expS    map[string]float64
	expMB   map[string]float64
}

func runOneSweep(s *core.Scenario, tr *tracer, req int) (sweepRun, error) {
	out := sweepRun{digests: map[string]string{}, expS: map[string]float64{}, expMB: map[string]float64{}}
	root := tr.begin("core.sweep", -1, req)
	start, cpu0 := time.Now(), cpuTime()
	for _, id := range sweepIDs {
		a0 := readRuntime()
		t0 := time.Now()
		sp := tr.begin("core.exp."+id, root, req)
		r, err := core.RunByID(s, id)
		if err != nil {
			return out, fmt.Errorf("experiment %s: %w", id, err)
		}
		text := r.Render()
		tr.end(sp)
		out.expS[id] = time.Since(t0).Seconds()
		out.expMB[id], _ = readRuntime().since(a0)
		sum := sha256.Sum256([]byte(text))
		out.digests[id] = hex.EncodeToString(sum[:8])
	}
	out.wall, out.cpu = time.Since(start), cpuTime()-cpu0
	tr.end(root)
	return out, nil
}

func runSweep(a runArgs) (*result, error) {
	res := newResult()
	var tr *tracer
	if a.trace {
		tr = newTracer()
	}
	cfg := sweepConfig(a.seed)
	key, err := core.WorldKey(cfg)
	if err != nil {
		return nil, err
	}
	sched := newScheduleHash(a.workload)
	sched.add(key, sweepIDs)
	res.Schedule = sched.String()

	// Set-up: setupReps fresh builds, the last of which serves the first
	// sweep; every later sweep builds its own fresh world.
	build := func() (*core.Scenario, float64, error) {
		runtime.GC() // start from a collected heap, as a fresh process does
		t0 := time.Now()
		s, err := core.NewScenario(cfg)
		return s, time.Since(t0).Seconds(), err
	}
	var setups []float64
	var world *core.Scenario
	stages := map[string][]float64{}
	for i := 0; i < setupReps; i++ {
		s, sec, err := build()
		if err != nil {
			return nil, fmt.Errorf("build world: %w", err)
		}
		setups = append(setups, sec)
		world = s
		for _, st := range s.BuildReport().Stages {
			stages[st.Stage] = append(stages[st.Stage], st.Wall.Seconds())
		}
	}

	heap := startHeapPeak()
	rt0 := readRuntime()
	start := time.Now()
	var runs []sweepRun
	// At least two sweeps: the second must repeat the first's digests.
	for i := 0; i < 2 || time.Since(start) < a.budget; i++ {
		s := world
		world = nil
		if s == nil {
			var sec float64
			if s, sec, err = build(); err != nil {
				return nil, fmt.Errorf("build world: %w", err)
			}
			setups = append(setups, sec)
		}
		// The traced run's first sweep is untraced: the pair measures
		// the tracing overhead.
		var t *tracer
		if i > 0 {
			t = tr
		}
		r, err := runOneSweep(s, t, i)
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
		if a.trace && i == 0 {
			// Only the traced sweep goes into the per-layer numbers.
			heap.Stop()
			heap = startHeapPeak()
			rt0 = readRuntime()
		}
	}
	allocMB, gcs := readRuntime().since(rt0)
	peak := heap.Stop()

	// Correctness: digests pinned at seed 42, and every sweep repeats
	// the first one's digests at any seed.
	for i, r := range runs {
		for _, id := range sweepIDs {
			res.Attempted++
			want := runs[0].digests[id]
			if p, ok := sweepPinned[id]; ok && a.seed == 42 {
				want = p
			}
			if r.digests[id] != want {
				res.fail("sweep %d: %s digest %s, want %s", i, id, r.digests[id], want)
			}
		}
	}
	res.Detail["digests"] = runs[0].digests
	res.Detail["sweeps"] = len(runs)

	if !a.trace {
		var walls, cpus []float64
		for _, r := range runs {
			walls = append(walls, r.wall.Seconds())
			cpus = append(cpus, r.cpu.Seconds())
			res.Notes = append(res.Notes, fmt.Sprintf("sweep wall_s=%.3f cpu_s=%.3f", r.wall.Seconds(), r.cpu.Seconds()))
		}
		res.set("setup_s", median(setups), "s")
		// One operation is one sweep.
		res.set("cpu_us_per_op", median(cpus)*1e6, "us")
		res.set("peak_heap_mb", peak, "MB")
		return res, nil
	}

	// Per-layer: the set-up builds' stages, the experiments of the
	// traced sweeps, and a sampled probe of netsim.RouteRTTMs on a
	// fresh world.
	for stage, secs := range stages {
		res.set("core.build."+stage+"_s", median(secs), "s")
	}
	probe, err := core.NewScenario(cfg)
	if err != nil {
		return nil, err
	}
	for _, id := range sweepIDs {
		var secs, mbs []float64
		for _, r := range runs[1:] {
			secs = append(secs, r.expS[id])
			mbs = append(mbs, r.expMB[id])
		}
		res.set("core.exp."+id+"_s", median(secs), "s")
		res.set("core.exp."+id+"_alloc_mb", median(mbs), "MB")
	}
	if err := probeRouteRTT(probe, a.seed, tr); err != nil {
		return nil, err
	}
	res.set("runtime.alloc_mb", allocMB, "MB")
	res.set("runtime.gc_cycles", gcs, "count")
	st, err := reportTrace(a, res, tr)
	if err != nil {
		return nil, err
	}
	res.setIfNum("netsim.route_rtt_us", meanSelfUs(st, "netsim.route_rtt"), "us")
	var traced []float64
	for _, r := range runs[1:] {
		traced = append(traced, r.wall.Seconds())
	}
	untraced := runs[0].wall.Seconds()
	res.set("trace.overhead_pct", 100*(median(traced)-untraced)/untraced, "%")
	return res, nil
}

// probeRouteRTT times Sim.RouteRTTMs, the congestion model the sweep's
// experiments spend most of their time in, over a seeded sample of
// resolved client routes from the scenario's default-free RIB.
func probeRouteRTT(s *core.Scenario, seed uint64, tr *tracer) error {
	rng := xrand.Derive(seed, 0x277)
	prefixes := s.Topo.Prefixes
	var routes []netpath.Route
	var owners []topology.Prefix
	for i := 0; i < 64; i++ {
		p := prefixes[rng.Intn(len(prefixes))]
		rib, err := s.Oracle.ToOrigin(p.Origin)
		if err != nil {
			return err
		}
		pop := s.Prov.ServingPoP(p.City)
		for _, opt := range s.Prov.EgressOptions(rib, pop) {
			phys, err := s.Res.ResolvePinned(opt.Route, pop, p.City, pop)
			if err == nil {
				routes = append(routes, phys)
				owners = append(owners, p)
			}
		}
	}
	if len(routes) == 0 {
		return fmt.Errorf("route-RTT probe: no resolvable routes")
	}
	horizon := float64(10 * 24 * 60)
	for i := 0; i < 20000; i++ {
		k := rng.Intn(len(routes))
		t := rng.Uniform(0, horizon)
		sp := tr.begin("netsim.route_rtt", -1, i)
		s.Sim.RouteRTTMs(routes[k], owners[k], t)
		tr.end(sp)
	}
	return nil
}
