package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"fastiov/internal/cluster"
	"fastiov/internal/experiments"
	"fastiov/internal/hostmem"
	"fastiov/internal/serve"
	"fastiov/internal/trace"
	"fastiov/internal/vfio"
)

// observerReps is how many times the layer sweep runs each observer
// setting; it reports medians.
const observerReps = 5

// cpuPackages are the layers CPU-profile samples are attributed to: the
// simulator's internal packages, the public fastiov package, the benchmark
// itself (bench), the collector's background workers (gc), and the rest
// (other: the scheduler and runtime work with no simulator frame).
var cpuPackages = []string{
	"audit", "cluster", "cni", "cri", "dataplane", "experiments", "fastiovd",
	"fault", "fleet", "guest", "harness", "hostmem", "hypervisor", "iommu",
	"journey", "kvm", "locks", "metrics", "nic", "pagetab", "pci", "serve",
	"serverless", "sim", "stats", "telemetry", "trace", "vfio", "zeromem",
	"fastiov", "bench", "gc", "other",
}

// layerUnits maps every per-layer metric except cpu_pct.* and
// experiments.*_s to its unit.
var layerUnits = map[string]string{
	"bench.tracing_overhead_s":         "s",
	"cluster.boot_s":                   "s",
	"cluster.startup_s.vanilla":        "s",
	"cluster.startup_s.fastiov":        "s",
	"vfio.devset_wait_share":           "%",
	"hostmem.membw_wait_share":         "%",
	"trace.overhead_s":                 "s",
	"trace.overhead_alloc_mb":          "MB",
	"metrics.burst_overhead_s":         "s",
	"metrics.burst_overhead_alloc_mb":  "MB",
	"fleet.boot_s":                     "s",
	"fleet.boot_alloc_mb":              "MB",
	"fleet.run_s":                      "s",
	"fleet.run_alloc_mb":               "MB",
	"serve.run_s":                      "s",
	"serve.admit_ratio":                "ratio",
	"serve.reroutes":                   "count",
	"metrics.overhead_s":               "s",
	"metrics.overhead_alloc_mb":        "MB",
	"journey.overhead_s":               "s",
	"journey.overhead_alloc_mb":        "MB",
	"journey.alerts_overhead_s":        "s",
	"journey.alerts_overhead_alloc_mb": "MB",
	"harness.sim_runs":                 "count",
	"harness.cache_hit_ratio":          "ratio",
}

// layerMetricUnits returns every per-layer metric the traced run prints,
// with its unit.
func layerMetricUnits() map[string]string {
	out := make(map[string]string, len(layerUnits)+len(cpuPackages)+len(suiteIDs))
	for k, v := range layerUnits {
		out[k] = v
	}
	for _, p := range cpuPackages {
		out["cpu_pct."+p] = "%"
	}
	for _, id := range suiteIDs {
		out["experiments."+id+"_s"] = "s"
	}
	return out
}

// tracedRun measures the workload's ops for half the budget untraced and
// for half under a CPU profile, then runs the layer sweep. The per-layer
// metrics are the sweep's, the profile's attribution to layers, and the
// tracing overhead: traced minus untraced op_s_p50. The span log and the
// CPU profile are written to outDir.
func (r *runner) tracedRun(w *workload, seed uint64, budget time.Duration, outDir string) (result, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return result{}, err
	}
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", w.name, seed))
	untraced := r.loop(w, seed, budget/2)

	prof, err := os.Create(base + ".cpu.pprof")
	if err != nil {
		return result{}, err
	}
	if err := pprof.StartCPUProfile(prof); err != nil {
		prof.Close()
		return result{}, err
	}
	traced := r.measure(w, seed, budget/2)
	pprof.StopCPUProfile()
	if err := prof.Close(); err != nil {
		return result{}, err
	}

	m := r.sweep(seed)
	shares, err := attributeCPU(base + ".cpu.pprof")
	if err != nil {
		return result{}, err
	}
	for _, p := range cpuPackages {
		m["cpu_pct."+p] = metric{shares[p], "%"}
	}
	_, opU, _ := columns(untraced)
	_, opT, _ := columns(traced)
	m["bench.tracing_overhead_s"] = metric{quantile(opT, 0.5) - quantile(opU, 0.5), "s"}

	if err := r.writeSpans(base + ".spans.json"); err != nil {
		return result{}, err
	}
	r.printSelfTimes()
	fmt.Fprintf(r.log, "workload %s traced: %d untraced + %d profiled ops; span log %s.spans.json, CPU profile %s.cpu.pprof\n",
		w.name, len(untraced), len(traced), base, base)
	want := layerMetricUnits()
	for k, v := range m {
		if want[k] != v.Unit {
			return result{}, fmt.Errorf("traced run emitted undeclared metric %s (%s)", k, v.Unit)
		}
	}
	if len(m) != len(want) {
		return result{}, fmt.Errorf("traced run emitted %d metrics, %d declared", len(m), len(want))
	}
	return r.result(m), nil
}

// sweep runs each layer's public entry points once per setting and returns
// the per-layer metrics. It is the same in every workload's traced run.
func (r *runner) sweep(seed uint64) map[string]metric {
	m := map[string]metric{}
	r.burstLayers(seed, m)
	r.serveLayers(seed, m)
	r.fleetLayers(seed, m)
	r.suiteLayers(seed, m)
	return m
}

// observerRuns times one op per observer setting, interleaved, reps times,
// and fails any op whose observer-free canonical bytes differ from the
// first setting's. It returns per-setting op times and allocations.
func (r *runner) observerRuns(what string, settings []string, op func(c *opCtx, setting string) ([]byte, error)) (opS, allocMB map[string][]float64, ctxs map[string][]*opCtx) {
	opS, allocMB, ctxs = map[string][]float64{}, map[string][]float64{}, map[string][]*opCtx{}
	var ref []byte
	for rep := 0; rep < observerReps; rep++ {
		for _, s := range settings {
			runtime.GC()
			name := what + "/" + s
			c := r.newOp(name)
			canon, err := op(c, s)
			r.endOp(c)
			if err == nil {
				if ref == nil {
					ref = canon
				} else if !bytes.Equal(canon, ref) {
					err = fmt.Errorf("observer-free canonical bytes differ from %s/%s", what, settings[0])
				}
			}
			r.record(name, err)
			opS[s] = append(opS[s], c.runDur.Seconds())
			allocMB[s] = append(allocMB[s], float64(c.alloc)/1e6)
			ctxs[s] = append(ctxs[s], c)
		}
	}
	return opS, allocMB, ctxs
}

// overhead records the median op-time and allocation cost of setting on
// over off as name_s and name_alloc_mb.
func overhead(m map[string]metric, name string, opS, allocMB map[string][]float64, on, off string) {
	m[name+"_s"] = metric{quantile(opS[on], 0.5) - quantile(opS[off], 0.5), "s"}
	m[name+"_alloc_mb"] = metric{quantile(allocMB[on], 0.5) - quantile(allocMB[off], 0.5), "MB"}
}

// burstLayers times the burst pair with observers off, with Options.Trace,
// and with Options.Metrics, and derives the modelled wait shares from the
// traced vanilla run.
func (r *runner) burstLayers(seed uint64, m map[string]metric) {
	observe := map[string]func(*cluster.Options){
		"off":     nil,
		"trace":   func(o *cluster.Options) { o.Trace = true },
		"metrics": func(o *cluster.Options) { o.Metrics = true },
	}
	var tracedVanilla *cluster.Result
	opS, allocMB, ctxs := r.observerRuns("burst-observers", []string{"off", "trace", "metrics"}, func(c *opCtx, s string) ([]byte, error) {
		var canon []byte
		for _, b := range burstBaselines {
			res, err := startup(c, b, seed, observe[s])
			if err != nil {
				return nil, err
			}
			if s == "trace" && b == cluster.BaselineVanilla && tracedVanilla == nil {
				tracedVanilla = res
			}
			canon = fmt.Appendf(canon, "host %s\n", b)
			canon = res.Recorder.AppendCanonical(canon)
		}
		if s == "off" {
			return canon, r.compare("burst-c200", seed, canon)
		}
		return canon, nil
	})
	var boot, van, fio []float64
	for _, c := range ctxs["off"] {
		for _, b := range burstBaselines {
			boot = append(boot, c.dur("cluster.NewHost/"+b))
		}
		van = append(van, c.dur("cluster.Host.StartupExperiment/"+cluster.BaselineVanilla))
		fio = append(fio, c.dur("cluster.Host.StartupExperiment/"+cluster.BaselineFastIOV))
	}
	m["cluster.boot_s"] = metric{quantile(boot, 0.5), "s"}
	m["cluster.startup_s.vanilla"] = metric{quantile(van, 0.5), "s"}
	m["cluster.startup_s.fastiov"] = metric{quantile(fio, 0.5), "s"}
	overhead(m, "trace.overhead", opS, allocMB, "trace", "off")
	overhead(m, "metrics.burst_overhead", opS, allocMB, "metrics", "off")

	devset, membw := 0.0, 0.0
	c := r.newOp("wait-shares")
	var err error
	if tracedVanilla == nil {
		err = fmt.Errorf("no traced vanilla burst")
	} else {
		err = c.run("trace.Analyze", func() error {
			a, err := trace.Analyze(tracedVanilla.Trace)
			if err != nil {
				return err
			}
			paths, err := a.CriticalPaths(tracedVanilla.Recorder, trace.DefaultBinder)
			if err != nil {
				return err
			}
			for _, t := range trace.Summarize(paths).Targets {
				switch {
				case strings.Contains(t.Name, vfio.DevsetLockPrefix):
					devset += t.Share
				case strings.Contains(t.Name, hostmem.MemBWName):
					membw += t.Share
				}
			}
			return nil
		})
	}
	r.endOp(c)
	r.record("wait-shares", err)
	m["vfio.devset_wait_share"] = metric{devset, "%"}
	m["hostmem.membw_wait_share"] = metric{membw, "%"}
}

// serveLayers times the serving incident with every observer off, then
// with metrics, journeys, and metrics plus alert rules on.
func (r *runner) serveLayers(seed uint64, m map[string]metric) {
	observe := map[string]func(*serve.Config){
		"off":      nil,
		"metrics":  func(c *serve.Config) { c.Metrics = true },
		"journeys": func(c *serve.Config) { c.Journeys = true },
		"alerts":   func(c *serve.Config) { c.Metrics = true; c.AlertSpec = experiments.DefaultSlowatchRules },
	}
	var admit, reroutes float64
	opS, allocMB, _ := r.observerRuns("serve-observers", []string{"off", "metrics", "journeys", "alerts"}, func(c *opCtx, s string) ([]byte, error) {
		res, err := serveRun(c, seed, observe[s])
		if err != nil {
			return nil, err
		}
		admit = float64(res.Admitted) / float64(res.Arrived)
		reroutes = float64(res.Rerouted)
		return res.Canonical(), nil
	})
	m["serve.run_s"] = metric{quantile(opS["off"], 0.5), "s"}
	m["serve.admit_ratio"] = metric{admit, "ratio"}
	m["serve.reroutes"] = metric{reroutes, "count"}
	overhead(m, "metrics.overhead", opS, allocMB, "metrics", "off")
	overhead(m, "journey.overhead", opS, allocMB, "journeys", "off")
	overhead(m, "journey.alerts_overhead", opS, allocMB, "alerts", "off")
}

// fleetLayers runs one fleet-100x20 op and splits it into boot and run.
func (r *runner) fleetLayers(seed uint64, m map[string]metric) {
	runtime.GC()
	c := r.newOp("fleet-layers")
	canon, err := fleetOp(c, seed)
	r.endOp(c)
	r.check("fleet-100x20", seed, canon, err)
	m["fleet.boot_s"] = metric{c.dur("fleet.New"), "s"}
	m["fleet.boot_alloc_mb"] = metric{c.allocMB("fleet.New"), "MB"}
	m["fleet.run_s"] = metric{c.dur("fleet.Fleet.Run"), "s"}
	m["fleet.run_alloc_mb"] = metric{c.allocMB("fleet.Fleet.Run"), "MB"}
}

// suiteLayers runs one paper-suite op: the harness's cache counts and each
// experiment's wall time.
func (r *runner) suiteLayers(seed uint64, m map[string]metric) {
	runtime.GC()
	c := r.newOp("suite-layers")
	canon, st, err := runSuite(c, seed)
	r.endOp(c)
	r.check("paper-suite", seed, canon, err)
	m["harness.sim_runs"] = metric{float64(st.Runs), "count"}
	hit := 0.0
	if st.Runs+st.Hits > 0 {
		hit = float64(st.Hits) / float64(st.Runs+st.Hits)
	}
	m["harness.cache_hit_ratio"] = metric{hit, "ratio"}
	for _, id := range suiteIDs {
		m["experiments."+id+"_s"] = metric{c.dur("fastiov.Suite.Run/" + id), "s"}
	}
}

// attributeCPU reads the CPU profile with `go tool pprof -traces` and
// returns the percentage of samples per cpuPackages entry. A sample belongs
// to the package of its innermost simulator frame; samples with none go to
// gc when rooted in a collector background worker, to sim when they are a
// coroutine switch, and else to other.
func attributeCPU(path string) (map[string]float64, error) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		return nil, err
	}
	var stderr bytes.Buffer
	cmd := exec.Command(goBin, "tool", "pprof", "-traces", path)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces: %v: %s", err, stderr.String())
	}
	return parseTraces(out)
}

// parseTraces attributes the stacks of `pprof -traces` output. Each stack
// is a block between separator lines; its first line carries the sample
// value and the leaf frame, and each later line one caller frame.
func parseTraces(out []byte) (map[string]float64, error) {
	weights := map[string]float64{}
	var total float64
	var frames []string
	var value float64
	flush := func() {
		if len(frames) > 0 {
			weights[layerOf(frames)] += value
			total += value
		}
		frames = frames[:0]
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	inStacks := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inStacks = true
			continue
		}
		if !inStacks || strings.TrimSpace(line) == "" {
			continue
		}
		fields := strings.Fields(line)
		if len(frames) == 0 {
			if len(fields) < 2 {
				return nil, fmt.Errorf("pprof -traces: malformed stack head %q", line)
			}
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				return nil, fmt.Errorf("pprof -traces: sample value %q: %v", fields[0], err)
			}
			value = d.Seconds()
			fields = fields[1:]
		}
		frames = append(frames, fields[0])
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if total == 0 {
		return nil, fmt.Errorf("pprof -traces: the CPU profile has no samples")
	}
	shares := map[string]float64{}
	for k, v := range weights {
		shares[k] = 100 * v / total
	}
	return shares, nil
}

// layerOf attributes one stack, leaf first.
func layerOf(frames []string) string {
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, "fastiov/internal/"); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				rest = rest[:i]
			}
			for _, p := range cpuPackages {
				if p == rest {
					return p
				}
			}
			return "other"
		}
		if strings.HasPrefix(f, "fastiov.") {
			return "fastiov"
		}
		if strings.HasPrefix(f, "main.") {
			return "bench"
		}
	}
	for _, f := range frames {
		for _, g := range gcRoots {
			if strings.HasPrefix(f, g) {
				return "gc"
			}
		}
		for _, c := range coroutineFrames {
			if strings.HasPrefix(f, c) {
				return "sim"
			}
		}
	}
	return "other"
}

// gcRoots are the collector's background workers: marking, sweeping, and
// returning memory to the OS.
var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge"}

// coroutineFrames mark a coroutine switch or start with no simulator frame
// on the stack. The simulation kernel's procs are the program's only
// iter.Pull coroutines, so these samples are the kernel's.
var coroutineFrames = []string{"runtime.coroswitch", "runtime.corostart", "iter.Pull"}

func (r *runner) writeSpans(path string) error {
	b, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// printSelfTimes prints, per span name, the count, the total time, and the
// self time: the duration not covered by child spans.
func (r *runner) printSelfTimes() {
	type agg struct {
		n           int
		total, self float64
	}
	byName := map[string]*agg{}
	child := make([]float64, len(r.spans)+1)
	for _, s := range r.spans {
		if s.Parent > 0 {
			child[s.Parent] += s.EndS - s.StartS
		}
	}
	for _, s := range r.spans {
		a := byName[s.Name]
		if a == nil {
			a = &agg{}
			byName[s.Name] = a
		}
		a.n++
		a.total += s.EndS - s.StartS
		a.self += s.EndS - s.StartS - child[s.ID]
	}
	names := make([]string, 0, len(byName))
	for k := range byName {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(r.log, "%-48s %6s %10s %10s\n", "span", "count", "total_s", "self_s")
	for _, k := range names {
		a := byName[k]
		fmt.Fprintf(r.log, "%-48s %6d %10.4f %10.4f\n", k, a.n, a.total, a.self)
	}
}
