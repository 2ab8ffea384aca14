package main

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"time"

	"beatbgp/internal/bgp"
	"beatbgp/internal/delta"
	"beatbgp/internal/matbgp"
	"beatbgp/internal/topology"
	"beatbgp/internal/xrand"
)

// The internet-routes world: the three-tier shape of matbgp's
// internet-scale benchmarks, 100k ASes. A graph seed draws the tie-break
// distances and which transits home to which tier-1 pair and which stubs
// to which transit pair, but every draw keeps the degrees balanced, so
// every graph lowers to 510 non-stubs plus 500 stub classes: 1,010
// distinct columns. Their costs still differ by about a sixth from one
// graph seed to another, so the workload keeps one graph (inetGraphSeed)
// at every --seed, as the sweep keeps the default world's topology, and
// --seed draws the column order and the flaps.
const (
	inetGraphSeed = 42
	inetTier1     = 10
	inetTransit   = 500
	inetASes      = 100000
	// inetColumnsPerSec sets the column sample: this many columns per
	// second of --seconds, about half the run on a 2-vCPU box.
	inetColumnsPerSec = 6
	// inetChecked is how many repaired columns are re-derived from
	// scratch after the timed region.
	inetChecked = 8
	// inetPinned is how many initial columns the pinned checksum covers.
	inetPinned = 16
	// inetOpCycles is how many flap cycles one operation puts a column
	// through: about as much CPU as building the column.
	inetOpCycles = 3
	// inetCycleColumns is how many columns one flap cycle is applied
	// to, a window that rotates through the computed columns.
	inetCycleColumns = 15
)

// inetPinnedSum is the checksum of the first inetPinned columns of the
// seed-42 column order.
const inetPinnedSum = "777e1474efd7969e"

// synthInternet builds the seeded 100k-AS graph's inputs: a tier-1
// peering clique, transits dual-homed into two tier-1s, and stubs
// dual-homed into transit pairs from a seeded rotation (stub s and
// s+500 share providers, hence a stub class).
func synthInternet(seed uint64) (n int, asn []int, links []matbgp.Link) {
	rng := xrand.Derive(seed, 0x1e7)
	n = inetASes
	asn = make([]int, n)
	for i := range asn {
		asn[i] = 100 + i
	}
	dist := func() float64 { return rng.Uniform(1, 1000) }
	for a := 0; a < inetTier1; a++ {
		for b := a + 1; b < inetTier1; b++ {
			links = append(links, matbgp.Link{A: a, B: b, Rel: topology.P2P, DistA: dist(), DistB: dist()})
		}
	}
	// Transits take the tier-1 pairs in a seeded order, round robin, so
	// every tier-1 serves the same number of transits at every seed.
	var pairs [][2]int
	for a := 0; a < inetTier1; a++ {
		for b := a + 1; b < inetTier1; b++ {
			pairs = append(pairs, [2]int{a, b})
		}
	}
	rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	for t := 0; t < inetTransit; t++ {
		v := inetTier1 + t
		for _, p := range pairs[t%len(pairs)] {
			links = append(links, matbgp.Link{A: v, B: p, Rel: topology.C2P, DistA: dist(), DistB: dist()})
		}
	}
	perm := rng.Perm(inetTransit)
	// An offset of half the rotation would pair each transit pair with
	// its mirror and halve the class count.
	off := 1 + rng.Intn(inetTransit-1)
	if off == inetTransit/2 {
		off++
	}
	for s := 0; s < n-inetTier1-inetTransit; s++ {
		v := inetTier1 + inetTransit + s
		j := s % inetTransit
		for _, p := range []int{perm[j], perm[(j+off)%inetTransit]} {
			links = append(links, matbgp.Link{A: v, B: inetTier1 + p, Rel: topology.C2P, DistA: dist(), DistB: dist()})
		}
	}
	return n, asn, links
}

// distinctColumns lists one origin per distinct column (every tier-1
// and transit, plus the first member of each stub class). Each kind is
// shuffled by the seed and the kinds are interleaved in proportion, so
// every prefix of the order has the same mix of column kinds, whose
// costs differ, at every seed.
func distinctColumns(g *matbgp.Graph, seed uint64) []int {
	kinds := make([][]int, 3) // tier-1s, transits, stub-class representatives
	for v := 0; v < g.NumASes(); v++ {
		if g.ClassOf(v) < 0 {
			k := 1
			if v < inetTier1 {
				k = 0
			}
			kinds[k] = append(kinds[k], v)
		}
	}
	for c := 0; c < g.NumClasses(); c++ {
		kinds[2] = append(kinds[2], int(g.ClassMembers(c)[0]))
	}
	rng := xrand.Derive(seed, 0xC01)
	total := 0
	for _, k := range kinds {
		rng.Shuffle(len(k), func(i, j int) { k[i], k[j] = k[j], k[i] })
		total += len(k)
	}
	// Take next from the kind furthest behind its share.
	origins := make([]int, 0, total)
	taken := make([]int, len(kinds))
	for len(origins) < total {
		best, deficit := -1, 0.0
		for k, list := range kinds {
			d := float64((len(origins)+1)*len(list))/float64(total) - float64(taken[k])
			if taken[k] < len(list) && (best < 0 || d > deficit) {
				best, deficit = k, d
			}
		}
		origins = append(origins, kinds[best][taken[best]])
		taken[best]++
	}
	return origins
}

// flapCycle draws one cycle of the flap sequence: both uplinks of two
// transits (one uplink carries the transit's customers' best routes,
// the other is a backup, so every cycle pays for one of each), a tier-1
// peering and a stub uplink. The first transit is drawn from hot, when
// given: transits whose customer cone holds the origin of a column the
// cycle is applied to. Such a flap re-routes most of the column, one
// elsewhere only the transit's cone, about a hundredth of the work; a
// uniform draw would hit in one cycle of twenty-odd and leave a run's
// repair cost to how many hits it happened to draw. The fixed mix keeps
// a cycle's cost comparable across seeds; the seed picks the links.
const flapsPerCycle = 6

func flapCycle(rng *xrand.Rand, nLinks int, hot []int) []int {
	nPeer := inetTier1 * (inetTier1 - 1) / 2
	a := nPeer + 2*rng.Intn(inetTransit)
	if len(hot) > 0 {
		a = nPeer + 2*hot[rng.Intn(len(hot))]
	}
	b := nPeer + 2*rng.Intn(inetTransit)
	stub := nPeer + 2*inetTransit + rng.Intn(nLinks-nPeer-2*inetTransit)
	return []int{a, a + 1, b, b + 1, rng.Intn(nPeer), stub}
}

func columnSum(col []uint32) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, w := range col {
		b[0], b[1], b[2], b[3] = byte(w), byte(w>>8), byte(w>>16), byte(w>>24)
		h.Write(b[:])
	}
	return h.Sum64()
}

func runInternetRoutes(a runArgs) (*result, error) {
	res := newResult()
	var tr *tracer
	if a.trace {
		tr = newTracer()
	}
	n, asn, links := synthInternet(inetGraphSeed)

	// Set-up: lower the graph setupReps times, keep the last.
	var g *matbgp.Graph
	var setups []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC() // start from a collected heap, as a fresh process does
		t0 := time.Now()
		sp := tr.begin("matbgp.new", -1, -1)
		gg, err := matbgp.New(n, asn, links)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("lower graph: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		g = gg
	}
	origins := distinctColumns(g, a.seed)
	sched := newScheduleHash(a.workload)
	sched.add(n, len(links), g.NumClasses(), inetGraphSeed, a.seed)
	for _, o := range origins {
		sched.add(o)
	}
	res.Detail["columns_distinct"] = len(origins)
	res.Detail["stub_classes"] = g.NumClasses()

	heap := startHeapPeak()
	rt0 := readRuntime()
	start := time.Now()

	// Columns: fresh repairers for a fixed-size prefix of the seeded
	// order (at least the pinned prefix).
	nCols := max(inetPinned, min(len(origins), inetColumnsPerSec*int(a.budget/time.Second)))
	sc := g.NewRepairScratch()
	var reps []*matbgp.Repairer
	var repOrigin []int
	var colMs, untracedMs []float64
	var colAlloc float64
	pinned := fnv.New64a()
	for _, o := range origins[:nCols] {
		anns := []bgp.Announcement{{Origin: o}}
		if a.trace {
			// The same column untraced first: the pair measures the
			// tracing overhead.
			t0 := time.Now()
			if _, err := g.NewRepairer(anns, nil); err != nil {
				return nil, err
			}
			untracedMs = append(untracedMs, float64(time.Since(t0))/1e6)
		}
		a0 := readRuntime()
		c0 := cpuTime()
		sp := tr.begin("matbgp.column", -1, len(reps))
		r, err := g.NewRepairer(anns, nil)
		tr.end(sp)
		colMs = append(colMs, float64(cpuTime()-c0)/1e6)
		res.Attempted++
		if err != nil {
			res.fail("column %d: %v", o, err)
			continue
		}
		mb, _ := readRuntime().since(a0)
		colAlloc += mb
		if len(reps) < inetPinned {
			fmt.Fprintf(pinned, "%d:%016x\n", o, columnSum(r.Column()))
		}
		reps = append(reps, r.WithScratch(sc))
		repOrigin = append(repOrigin, o)
	}

	// Repairs: cycles of link flaps, each flap a down delta then an up
	// delta applied to the cycle's window of repairers, until the
	// budget is spent (at least one pass over every repairer).
	rng := xrand.Derive(a.seed, 0xF1A9)
	var applies, downs, dirtyDowns, cycles, columnCycles int
	var applyUs []float64
	repCPU := cpuTime()
	window := min(inetCycleColumns, len(reps))
	nPeer := inetTier1 * (inetTier1 - 1) / 2
	for ; cycles*window < len(reps) || time.Since(start) < a.budget; cycles++ {
		first := cycles * window % len(reps)
		win := make([]int, window)
		for k := range win {
			win[k] = (first + k) % len(reps)
		}
		columnCycles += window
		var hot []int // transits above the window's origins
		for _, i := range win {
			o := repOrigin[i]
			switch {
			case o < inetTier1:
			case o < inetTier1+inetTransit:
				hot = append(hot, o-inetTier1)
			default:
				up := nPeer + 2*inetTransit + 2*(o-inetTier1-inetTransit)
				hot = append(hot, links[up].B-inetTier1, links[up+1].B-inetTier1)
			}
		}
		for _, l := range flapCycle(rng, len(links), hot) {
			sched.add("flap", l)
			for _, d := range []delta.Delta{{Down: []int{l}}, {Up: []int{l}}} {
				for _, i := range win {
					r := reps[i]
					var before uint64
					if a.trace && len(d.Down) > 0 {
						before = columnSum(r.Column())
					}
					t0 := time.Now()
					sp := tr.begin("matbgp.apply", -1, applies)
					err := r.Apply(d)
					tr.end(sp)
					if a.trace {
						applyUs = append(applyUs, float64(time.Since(t0))/1e3)
					}
					applies++
					res.Attempted++
					if err != nil {
						return nil, fmt.Errorf("flap link %d on column %d: %w", l, repOrigin[i], err)
					}
					if a.trace && len(d.Down) > 0 {
						downs++
						if columnSum(r.Column()) != before {
							dirtyDowns++
						}
					}
				}
			}
		}
	}
	repCPU = cpuTime() - repCPU
	allocMB, gcs := readRuntime().since(rt0)
	peak := heap.Stop()

	// Leave a transit uplink and a tier-1 peering down for the
	// correctness check below.
	check := delta.Delta{Down: flapCycle(rng, len(links), nil)[3:5]}.Normalize()
	for i, r := range reps {
		if err := r.Apply(check); err != nil {
			return nil, fmt.Errorf("check delta on column %d: %w", repOrigin[i], err)
		}
	}

	// Correctness: the pinned initial columns at the default seed, and
	// sampled repaired columns against a fresh build at the same down
	// set.
	sum := fmt.Sprintf("%016x", pinned.Sum64())
	res.Detail["pinned_columns_sum"] = sum
	res.Attempted++
	if a.seed == 42 && sum != inetPinnedSum {
		res.fail("initial column checksum %s, pinned %s", sum, inetPinnedSum)
	}
	pick := xrand.Derive(a.seed, 0xC4EC)
	for k := 0; k < inetChecked && len(reps) > 0; k++ {
		i := pick.Intn(len(reps))
		r := reps[i]
		o := repOrigin[i]
		fresh, err := g.NewRepairer([]bgp.Announcement{{Origin: o}}, r.Down())
		res.Attempted++
		if err != nil {
			res.fail("fresh column %d: %v", o, err)
			continue
		}
		if columnSum(fresh.Column()) != columnSum(r.Column()) {
			res.fail("column %d: repaired column differs from a fresh build at down set %v", o, r.Down())
		}
	}
	res.Schedule = sched.String()
	var colCPU float64
	for _, ms := range colMs {
		colCPU += ms / 1000
	}
	colP50 := median(append([]float64(nil), colMs...))
	res.Notes = append(res.Notes, fmt.Sprintf("columns=%d column_cpu_ms_p50=%.2f flap_cycles=%d applies=%d flap_cpu_s=%.3f",
		len(reps), colP50, cycles, applies, repCPU.Seconds()))

	if !a.trace {
		res.set("setup_s", median(setups), "s")
		// One operation is one column built and then put through
		// inetOpCycles flap cycles: the median column CPU time plus
		// inetOpCycles times the flap phase's CPU time per column and
		// cycle. The weight is fixed, so a faster box running more
		// cycles in the budget does not change what is measured.
		perColumnCycle := repCPU.Seconds() * 1e6 / float64(columnCycles)
		res.set("cpu_us_per_op", colP50*1e3+inetOpCycles*perColumnCycle, "us")
		res.Detail["column_cpu_ms"] = colMs
		res.Detail["columns_per_cpu_s"] = float64(len(colMs)) / colCPU
		res.Detail["applies_per_cpu_s"] = float64(applies) / repCPU.Seconds()
		res.set("peak_heap_mb", peak, "MB")
		return res, nil
	}
	st, err := reportTrace(a, res, tr)
	if err != nil {
		return nil, err
	}
	res.set("matbgp.lower_s", median(setups), "s")
	res.set("matbgp.column_p50_ms", colP50, "ms")
	res.set("matbgp.column_p99_ms", quantile(append([]float64(nil), colMs...), 0.99), "ms")
	res.set("matbgp.column_alloc_mb", colAlloc/float64(len(colMs)), "MB")
	res.set("matbgp.apply_p50_us", quantile(applyUs, 0.5), "us")
	res.set("matbgp.apply_p99_us", quantile(applyUs, 0.99), "us")
	if downs > 0 {
		res.set("matbgp.apply_dirty_ratio", float64(dirtyDowns)/float64(downs), "ratio")
	}
	res.set("runtime.alloc_mb", allocMB, "MB")
	res.set("runtime.gc_cycles", gcs, "count")
	traced := float64(st["matbgp.column"].Total) / 1e6
	var untraced float64
	for _, ms := range untracedMs {
		untraced += ms
	}
	res.set("trace.overhead_pct", 100*(traced-untraced)/untraced, "%")
	return res, nil
}
