// Command perfbench is the repository benchmark: a closed loop with one
// client that runs one named workload against the simulator's public Go
// functions for a fixed wall-clock budget, checks every operation for
// correctness, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer metrics) as one JSON object on the last line of standard output.
//
//	go run . --workload burst-c200 --seed 1 --seconds 20 --trace 0
//
// run.sh builds and runs it from the root of a checkout. See README.md for
// the workloads, the metrics, and how to read a traced run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (burst-c200, fleet-100x20, serve-incident, paper-suite)")
	seed := fs.Uint64("seed", 1, "workload seed (the pinned digests cover seed 1)")
	seconds := fs.Float64("seconds", 20, "measured wall-clock seconds")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	out := fs.String("out", ".bench_build/perfbench", "directory for the traced run's span log and CPU profile")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *seed == 0 || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: --seed must be >= 1, --seconds > 0, --trace 0 or 1")
		return 2
	}
	budget := time.Duration(*seconds * float64(time.Second))

	r := newRunner(stderr)
	var res result
	var err error
	if *traced == 1 {
		res, err = r.tracedRun(w, *seed, budget, *out)
	} else {
		res = r.endToEnd(w, *seed, budget)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// sample is one op's measurements.
type sample struct {
	setup, op time.Duration
	allocMB   float64
}

// endToEnd measures the workload's end-to-end metrics with tracing off.
func (r *runner) endToEnd(w *workload, seed uint64, budget time.Duration) result {
	samples := r.loop(w, seed, budget)
	gap := r.paperGap(seed)
	m := endToEndMetrics(samples, gap)
	r.summary(w, samples, m)
	return r.result(m)
}

// endToEndMetrics reduces a run's samples to the end-to-end metrics.
func endToEndMetrics(samples []sample, gap float64) map[string]metric {
	setup, op, alloc := columns(samples)
	return map[string]metric{
		"op_s_p50":        {quantile(op, 0.5), "s"},
		"setup_s":         {quantile(setup, 0.5), "s"},
		"alloc_mb_per_op": {quantile(alloc, 0.5), "MB"},
		"paper_gap_pp":    {gap, "pp"},
	}
}

// minTailOps is the fewest timed ops for which the summary reports
// op_s_p90: ten samples must lie beyond it.
const minTailOps = 100

// loop runs one untimed warm-up op, then measures. Every op, the warm-up
// included, is checked and counted.
func (r *runner) loop(w *workload, seed uint64, budget time.Duration) []sample {
	r.do(w, seed)
	return r.measure(w, seed, budget)
}

// measure runs timed ops while the next one, taking as long as the last,
// would end within budget, and at least one.
func (r *runner) measure(w *workload, seed uint64, budget time.Duration) []sample {
	var samples []sample
	deadline := time.Now().Add(budget)
	for last := time.Duration(0); len(samples) == 0 || time.Now().Add(last).Before(deadline); {
		t0 := time.Now()
		samples = append(samples, r.do(w, seed))
		last = time.Since(t0)
	}
	return samples
}

// do runs, times, and checks one op. The collector runs first so every op
// starts from the same heap state.
func (r *runner) do(w *workload, seed uint64) sample {
	runtime.GC()
	c := r.newOp(w.name)
	canon, err := w.op(c, seed)
	r.endOp(c)
	r.check(w.name, seed, canon, err)
	return sample{setup: c.setupDur, op: c.runDur, allocMB: float64(c.alloc) / 1e6}
}

func (r *runner) result(m map[string]metric) result {
	return result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: m}
}

// summary prints a human-readable line per end-to-end metric, with the
// sample count, op_s_p90 where the run has enough ops for it, and the
// failure ratio the JSON line carries as failed / attempted.
func (r *runner) summary(w *workload, samples []sample, m map[string]metric) {
	fmt.Fprintf(r.log, "workload %s: %d timed ops (+1 warm-up), closed loop, one client\n", w.name, len(samples))
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(r.log, "  %-16s %12.6f %s\n", k, m[k].Value, m[k].Unit)
	}
	if len(samples) >= minTailOps {
		_, op, _ := columns(samples)
		fmt.Fprintf(r.log, "  %-16s %12.6f s\n", "op_s_p90", quantile(op, 0.9))
	} else {
		fmt.Fprintf(r.log, "  %-16s %12s (fewer than %d timed ops)\n", "op_s_p90", "n/a", minTailOps)
	}
	fmt.Fprintf(r.log, "  %-16s %12.6f ratio (%d/%d)\n", "fail_ratio", float64(r.failed)/float64(r.attempted), r.failed, r.attempted)
}

func columns(samples []sample) (setup, op, alloc []float64) {
	for _, s := range samples {
		setup = append(setup, s.setup.Seconds())
		op = append(op, s.op.Seconds())
		alloc = append(alloc, s.allocMB)
	}
	return setup, op, alloc
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; NaN for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
