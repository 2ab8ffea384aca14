package main

import (
	"bytes"
	"fmt"
	"net/http"
	"time"

	"beatbgp/internal/serve"
)

// traceServe is the traced run of a serve workload. The query stream
// goes four ways, each on its own freshly built world so that every
// pass starts from the same chain state:
//
//  1. over HTTP through the open-loop client, with client spans;
//  2. through the serve library, untraced (the tracing-overhead base);
//  3. through the serve library with a span per answer and per encode;
//  4. through the decomposition: the layers' public calls in the
//     server's order, a span around each.
//
// Pass 4's bytes must equal pass 3's. Each world first answers warm, the
// queries set-up warmed the daemon with.
func traceServe(a runArgs, res *result, st *serveStack, qs []query, setup setupTimes, share float64, warm []query) error {
	for stage, secs := range setup.stages {
		res.set("core.build."+stage+"_s", median(secs), "s")
	}
	res.set("core.freeze_s", median(setup.freeze), "s")
	res.Detail["setup_s"] = median(setup.total)
	res.set("serve.repeat_share", share, "ratio")

	// Pass 1: HTTP.
	trA := newTracer()
	rt0 := readRuntime()
	out, ls := openLoop(st.addr, qs, trA)
	allocMB, gcs := readRuntime().since(rt0)
	s := summarise(0, qs, out, ls)
	res.Attempted += s.Offered
	res.Failed += s.failed()
	res.Attempted += checkAnswers(res, serve.New(st.w), qs, out, a.seed, checkSample)
	res.Detail["stream"] = s
	res.set("runtime.alloc_mb", allocMB, "MB")
	res.set("runtime.gc_cycles", gcs, "count")
	res.set("client.p50_ms", s.P50Ms, "ms")
	res.set("client.p99_ms", s.P99Ms, "ms")
	res.set("client.late_p99_ms", s.LateP99Ms, "ms")
	res.set("client.sent", float64(s.Sent), "count")
	res.set("client.dropped", float64(s.Dropped+s.Late), "count")
	res.set("client.inflight_max", float64(ls.backlogMax), "count")
	st.close()

	fresh := func() (*serveStack, error) {
		f, err := buildServeStack(false)
		if err == nil {
			libReplay(f.srv, warm)
		}
		return f, err
	}

	// Pass 2: library, untraced.
	stU, err := fresh()
	if err != nil {
		return err
	}
	t0 := time.Now()
	libReplay(stU.srv, qs)
	untraced := time.Since(t0)

	// Pass 3: library, traced.
	stL, err := fresh()
	if err != nil {
		return err
	}
	trL := newTracer()
	libBodies := make([][]byte, len(qs))
	libUs := make([]float64, len(qs))
	var traced time.Duration
	for i := range qs {
		q := &qs[i]
		t0 := time.Now()
		root := trL.begin("serve.library", -1, i)
		sp := trL.begin("serve.answer_"+kindNames[q.kind], root, i)
		v, err := libValue(stL.srv, q)
		trL.end(sp)
		sp = trL.begin("serve.encode", root, i)
		_, libBodies[i] = encodeAnswer(v, err)
		trL.end(sp)
		trL.end(root)
		d := time.Since(t0)
		traced += d
		libUs[i] = float64(d) / 1e3
	}

	// Pass 4: decomposition.
	stD, err := buildServeStack(false)
	if err != nil {
		return err
	}
	dec := newDecomposer(stD.w, nil)
	for i := range warm {
		dec.answer(&warm[i], -1)
	}
	dec.latencyAnswers = 0
	trD := newTracer()
	dec.tr = trD
	for i := range qs {
		_, body := dec.answer(&qs[i], i)
		res.Attempted++
		if !bytes.Equal(body, libBodies[i]) {
			res.fail("query %d (%s): decomposed answer %q differs from library %q", i, kindNames[qs[i].kind], body, libBodies[i])
		}
	}

	// HTTP overhead: round trip minus the library answer, per chain
	// read, as a median.
	var over []float64
	for i := range qs {
		if qs[i].kind > kCatchment || !out[i].ok() || out[i].status != http.StatusOK {
			continue
		}
		over = append(over, float64(out[i].done-out[i].sent)/1e3-libUs[i])
	}
	res.setIfNum("serve.http_overhead_us", median(over), "us")

	stL2 := trL.stats()
	res.setIfNum("serve.encode_us", meanSelfUs(stL2, "serve.encode"), "us")
	for _, k := range kindNames {
		res.setIfNum("serve.answer_"+k+"_us", meanSelfUs(stL2, "serve.answer_"+k), "us")
	}
	var libTotal time.Duration
	if s := stL2["serve.library"]; s != nil {
		libTotal = s.Total
	}
	res.set("trace.overhead_pct", 100*(traced.Seconds()-untraced.Seconds())/untraced.Seconds(), "%")

	stDs, err := reportTrace(a, res, trD)
	if err != nil {
		return err
	}
	if s := stDs["serve.decomposed"]; s != nil && libTotal > 0 {
		res.set("trace.decomp_gap_pct", 100*(s.Total.Seconds()-libTotal.Seconds())/libTotal.Seconds(), "%")
	}
	for _, name := range []string{"netpath.resolve_pinned", "netsim.route_rtt", "provider.egress_options",
		"bgp.start_repair", "bgp.apply", "bgp.rib", "cdn.anycast_rib_at", "cdn.phys_via_rib"} {
		res.setIfNum(name+"_us", meanSelfUs(stDs, name), "us")
	}
	count := func(name string) float64 {
		if s := stDs[name]; s != nil {
			return float64(s.Count)
		}
		return 0
	}
	if dec.latencyAnswers > 0 {
		res.set("netpath.resolves_per_query", count("netpath.resolve_pinned")/float64(dec.latencyAnswers), "count")
	}
	res.set("bgp.applies_per_query", count("bgp.apply")/float64(len(qs)), "count")

	dir := ".bench_out"
	for name, tr := range map[string]*tracer{"http": trA, "library": trL} {
		if err := tr.write(dir, fmt.Sprintf("spans-%s-seed%d-%s.jsonl.gz", a.workload, a.seed, name)); err != nil {
			return err
		}
	}
	return nil
}
