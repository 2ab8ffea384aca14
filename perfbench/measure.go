package main

import (
	"compress/gzip"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is sorted in place. Empty input gives NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// cpuTime is the process's user plus system CPU time. On a guest
// kernel with paravirtual steal accounting it excludes the time the
// hypervisor ran other tenants, which wall time on a shared box does
// not.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeCounters samples the Go runtime's cumulative allocation and GC
// counters; deltas between two samples attribute them to a region.
type runtimeCounters struct {
	allocBytes uint64
	gcCycles   uint64
}

func readRuntime() runtimeCounters {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return runtimeCounters{s[0].Value.Uint64(), s[1].Value.Uint64()}
}

func (a runtimeCounters) since(b runtimeCounters) (allocMB float64, gcCycles float64) {
	return float64(a.allocBytes-b.allocBytes) / (1 << 20), float64(a.gcCycles - b.gcCycles)
}

// heapPeak samples the live heap (the bytes the latest GC cycle marked
// reachable) every 5 ms until stopped, keeping the maximum. Unlike the
// heap's total object bytes, the live heap does not depend on when the
// collector happened to run. The runtime metrics read does not stop the
// world.
type heapPeak struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak in MiB. A collection at the
// end marks the region's final live heap too: the last sample is as
// old as the last cycle, which may have run long before the end.
func (h *heapPeak) Stop() float64 {
	close(h.stop)
	<-h.done
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(max(h.peak, s[0].Value.Uint64())) / (1 << 20)
}

// tracer records spans in memory: name, start, end, parent span and
// request id. A nil *tracer records nothing, so traced and untraced
// paths share their code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

type span struct {
	Name   string `json:"name"`
	Parent int32  `json:"parent"`
	Req    int32  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, req int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Parent: int32(parent), Req: int32(req), Start: now, End: -1})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records an already timed span.
func (t *tracer) add(name string, parent, req int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Parent: int32(parent), Req: int32(req),
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	t.mu.Unlock()
	return id
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	Count int
	Total time.Duration // summed durations
	Self  time.Duration // summed durations minus child spans
}

// stats aggregates spans by name. A span's self time is its duration
// minus the durations of its children; children of one span never
// overlap, because every traced call site is sequential.
func (t *tracer) stats() map[string]*spanStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]*spanStat{}
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		st := out[s.Name]
		if st == nil {
			st = &spanStat{}
			out[s.Name] = st
		}
		dur := s.End - s.Start
		self := dur - child[i]
		st.Count++
		st.Total += time.Duration(dur)
		st.Self += time.Duration(self)
	}
	return out
}

// meanSelfUs is the mean self time of the named spans in µs, NaN when
// none were recorded.
func meanSelfUs(st map[string]*spanStat, name string) float64 {
	s := st[name]
	if s == nil || s.Count == 0 {
		return math.NaN()
	}
	return float64(s.Self) / 1e3 / float64(s.Count)
}

// layerSelf sums self time per layer (the span name up to its first
// dot) in milliseconds.
func layerSelf(st map[string]*spanStat) map[string]float64 {
	out := map[string]float64{}
	for name, s := range st {
		layer, _, _ := strings.Cut(name, ".")
		out[layer] += float64(s.Self) / 1e6
	}
	return out
}

// write stores every span as gzipped JSON lines under dir.
func (t *tracer) write(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	enc := json.NewEncoder(zw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if cerr := zw.Close(); err == nil {
		err = cerr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// setIfNum sets a metric only when the value was measured (not NaN).
func (r *result) setIfNum(name string, v float64, unit string) {
	if !math.IsNaN(v) && !math.IsInf(v, 0) {
		r.set(name, v, unit)
	}
}

// reportTrace adds the span aggregates shared by every workload: per
// layer self time, and writes the spans out.
func reportTrace(a runArgs, res *result, tr *tracer) (map[string]*spanStat, error) {
	st := tr.stats()
	for layer, ms := range layerSelf(st) {
		res.set("selftime."+layer+"_ms", ms, "ms")
	}
	counts := map[string]int{}
	for name, s := range st {
		counts[name] = s.Count
	}
	res.Detail["span_counts"] = counts
	return st, tr.write(".bench_out", fmt.Sprintf("spans-%s-seed%d.jsonl.gz", a.workload, a.seed))
}

// scheduleHash accumulates a workload's offered inputs.
type scheduleHash struct{ h hash.Hash64 }

func newScheduleHash(workload string) *scheduleHash {
	s := &scheduleHash{fnv.New64a()}
	s.add(workload)
	return s
}

func (s *scheduleHash) add(parts ...any) {
	for _, p := range parts {
		fmt.Fprintf(s.h, "%v|", p)
	}
	s.h.Write([]byte{'\n'})
}

func (s *scheduleHash) String() string { return fmt.Sprintf("%016x", s.h.Sum64()) }
