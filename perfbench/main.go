// Command perfbench is the repository benchmark: one process runs one
// named workload, checks every output it produces, and prints its
// metrics as the last line of standard output.
//
//	perfbench --workload sweep|serve-steady|serve-timeline|internet-routes
//	          --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// runs the same workload with spans recorded around every call into the
// program's public layer functions and reports per-layer metrics. The
// workload inputs are a pure function of --seed. Run metadata (box,
// toolchain, source identity, schedule hashes) go to a "# meta" line on
// stdout. Run it from the root of a checkout of the repository: it
// hashes the Go sources there and writes the full result and spans to
// .bench_out/.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// result is one run's outcome: the counts behind the final line, the
// metrics, and the detail written to the result file only.
type result struct {
	Attempted int
	Failed    int
	Metrics   map[string]metric
	// Schedule identifies the offered load: a hash over every input the
	// workload fed the program, so two runs can be shown to have
	// offered identical work.
	Schedule string
	Detail   map[string]any
	// Mismatches lists correctness failures (at most a few are kept).
	Mismatches []string
	// Notes are printed as "# " lines before the result (and kept in
	// the result file): numbers a reader wants that are not declared
	// metrics.
	Notes []string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newResult() *result {
	return &result{Metrics: map[string]metric{}, Detail: map[string]any{}}
}

func (r *result) set(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }

// fail records one failed operation with its reason.
func (r *result) fail(format string, args ...any) {
	r.Failed++
	if len(r.Mismatches) < 20 {
		r.Mismatches = append(r.Mismatches, fmt.Sprintf(format, args...))
	}
}

// setupReps is how many times each workload sets up; setup_s is the
// median.
const setupReps = 11

type runArgs struct {
	workload string
	seed     uint64
	budget   time.Duration
	trace    bool
}

var workloads = map[string]func(runArgs) (*result, error){
	"sweep":           runSweep,
	"serve-steady":    runServeSteady,
	"serve-timeline":  runServeTimeline,
	"internet-routes": runInternetRoutes,
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		workload = flag.String("workload", "", "workload name")
		seed     = flag.Uint64("seed", 42, "workload seed; inputs are a pure function of it")
		seconds  = flag.Int("seconds", 10, "measured seconds per run")
		trace    = flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	)
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return fmt.Errorf("unknown --workload %q (valid: %v)", *workload, names)
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 || flag.NArg() > 0 {
		return errors.New("--seconds must be >= 1, --trace 0 or 1, and no positional arguments")
	}
	args := runArgs{*workload, *seed, time.Duration(*seconds) * time.Second, *trace == 1}
	man, err := loadManifest()
	if err != nil {
		return err
	}
	meta, err := collectMeta(args)
	if err != nil {
		return err
	}
	res, err := fn(args)
	if err != nil {
		return err
	}
	meta.Schedule = res.Schedule
	final, err := man.final(args.trace, res)
	if err != nil {
		return err
	}
	for _, m := range res.Mismatches {
		fmt.Fprintf(os.Stderr, "perfbench: mismatch: %s\n", m)
	}
	if err := writeResultFile(args, meta, res); err != nil {
		return err
	}
	mb, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	for _, n := range res.Notes {
		fmt.Printf("# %s\n", n)
	}
	fmt.Printf("# fail_pct %.4f (%d of %d operations failed or were incorrect)\n",
		100*float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted)
	fmt.Printf("# meta %s\n", mb)
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, final})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if res.Failed > 0 {
		return fmt.Errorf("%d of %d operations failed or were incorrect", res.Failed, res.Attempted)
	}
	return nil
}

// manifest holds the metrics BENCHMARK.json declares: the final line
// carries exactly its end-to-end metrics without tracing and exactly its
// per-layer metrics with it.
type manifest struct {
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// loadManifest reads BENCHMARK.json from the working directory, the
// root of the checkout.
func loadManifest() (manifest, error) {
	var m manifest
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(b, &m); err != nil {
		return m, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return m, nil
}

// final selects the declared metrics of the run's mode from what the
// workload measured. Every workload measures every end-to-end metric;
// one that is missing is an error. A per-layer metric of a layer the
// workload never calls is 0: no span, no time. Measured metrics that
// are not declared stay in the result file and on a "# " line.
func (m manifest) final(trace bool, res *result) (map[string]metric, error) {
	decl := m.EndToEnd
	if trace {
		decl = m.PerLayer
	}
	out := make(map[string]metric, len(decl))
	var unreached []string
	for _, d := range decl {
		v, ok := res.Metrics[d.Name]
		switch {
		case ok && v.Unit != d.Unit:
			return nil, fmt.Errorf("metric %s measured in %s, declared in %s", d.Name, v.Unit, d.Unit)
		case ok:
			out[d.Name] = v
		case trace:
			out[d.Name] = metric{0, d.Unit}
			unreached = append(unreached, d.Name)
		default:
			return nil, fmt.Errorf("end-to-end metric %s was not measured", d.Name)
		}
	}
	if len(unreached) > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf("not reached by this workload, reported as 0: %s", strings.Join(unreached, " ")))
	}
	var extra []string
	for name, v := range res.Metrics {
		if _, ok := out[name]; !ok {
			extra = append(extra, fmt.Sprintf("%s=%g%s", name, v.Value, v.Unit))
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		res.Notes = append(res.Notes, "undeclared: "+strings.Join(extra, " "))
	}
	return out, nil
}

// writeResultFile stores the full result (metadata, metrics, detail)
// as JSON under .bench_out/.
func writeResultFile(a runArgs, meta runMeta, res *result) error {
	dir := ".bench_out"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(map[string]any{
		"meta":       meta,
		"attempted":  res.Attempted,
		"failed":     res.Failed,
		"mismatches": res.Mismatches,
		"notes":      res.Notes,
		"metrics":    res.Metrics,
		"detail":     res.Detail,
	}, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", a.workload, a.seed, btoi(a.trace))
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
