// Package experiments maps every table and figure of the paper's
// evaluation (§3.2, §6) to a runnable experiment over the simulated
// testbed. Each runner returns a Report whose table reproduces the rows or
// series of the original, plus free-form renderings (timelines, CDFs).
//
// Every runner decomposes its parameter sweep into independently
// schedulable jobs — one deterministic sim run per (scenario, seed) — and
// executes them through an Exec (see exec.go), which fans the runs across
// a worker pool, sweeps each scenario over K seeds (reporting mean ± 95%
// CI when K > 1), and memoizes results so scenarios shared across figures
// simulate once.
//
// The per-experiment index lives in DESIGN.md §4; measured-vs-paper numbers
// are recorded in EXPERIMENTS.md.
package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"fastiov/internal/cluster"
	"fastiov/internal/cri"
	"fastiov/internal/hypervisor"
	"fastiov/internal/sim"
	"fastiov/internal/stats"
	"fastiov/internal/telemetry"
)

// DefaultConcurrency matches the paper's headline setting (§3.1).
const DefaultConcurrency = 200

// Report is one experiment's rendered outcome.
type Report struct {
	ID    string
	Title string
	Table *stats.Table
	// Text carries non-tabular renderings (timelines, CDF plots).
	Text string
	// Notes records headline observations (reduction ratios etc.).
	Notes []string
}

// String renders the report for terminal output.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	if r.Table != nil {
		b.WriteString(r.Table.String())
	}
	if r.Text != "" {
		b.WriteString(r.Text)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Encode returns a canonical byte serialization of the report: id, title,
// the table as CSV, the free-form text, and every note. Two runs of the
// same experiment at the same seeds must produce identical bytes — the
// determinism-verification mode and the golden-file tests both compare
// these encodings byte for byte.
func (r *Report) Encode() []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "id: %s\ntitle: %s\n", r.ID, r.Title)
	if r.Table != nil {
		b.WriteString("table:\n")
		b.WriteString(r.Table.CSV())
	}
	if r.Text != "" {
		fmt.Fprintf(&b, "text:\n%s", r.Text)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.Bytes()
}

// breakdownStages is the Fig. 5 / Tab. 1 stage list.
var breakdownStages = []telemetry.Stage{
	telemetry.StageCgroup, telemetry.StageDMARAM, telemetry.StageVirtioFS,
	telemetry.StageDMAImage, telemetry.StageVFIODev, telemetry.StageVFDriver,
}

// pairedMetric estimates f(hi) − f(lo) seed by seed. Pairing matters: both
// scenarios saw the same seed, so the difference's confidence interval
// reflects the difference's own spread, not the operands' summed variance.
func pairedMetric(lo, hi startups, f func(*cluster.Result) time.Duration) stats.Estimate {
	vals := make([]time.Duration, len(lo))
	for i := range lo {
		vals[i] = f(hi[i]) - f(lo[i])
	}
	return stats.EstimateOf(vals)
}

// pctString renders a per-seed percentage series as "12.3" or "12.3 ±0.4".
func pctString(perSeed []float64) string {
	mean, half, n := stats.FloatEstimateOf(perSeed)
	if n < 2 {
		return fmt.Sprintf("%.1f", mean)
	}
	return fmt.Sprintf("%.1f ±%.1f", mean, half)
}

// seedNote appends a rendering-provenance note when sweeping several seeds.
func seedNote(rep *Report, x *Exec, what string) {
	if len(x.seeds) > 1 {
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"%s rendered from seed %d; scalar columns aggregate %d seeds (mean ±95%% CI)",
			what, x.seeds[0], len(x.seeds)))
	}
}

// Fig1 reproduces Figure 1: the overhead of enabling SR-IOV on average
// startup time as concurrency grows from 10 to 200.
func (x *Exec) Fig1(concurrencies []int) (*Report, error) {
	if len(concurrencies) == 0 {
		concurrencies = []int{10, 50, 100, 150, 200}
	}
	var specs []startupSpec
	for _, c := range concurrencies {
		specs = append(specs,
			startupSpec{Baseline: cluster.BaselineNoNet, N: c},
			startupSpec{Baseline: cluster.BaselineVanilla, N: c})
	}
	rs, err := runAll[*cluster.Result](x, specs)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("concurrency", "no-net avg", "sriov avg", "overhead", "overhead %")
	rep := &Report{ID: "fig1", Title: "Overhead of enabling SR-IOV on secure container startup", Table: t}
	for i, c := range concurrencies {
		non, van := rs[2*i], rs[2*i+1]
		overhead := pairedMetric(non, van, func(r *cluster.Result) time.Duration { return r.Totals.Mean() })
		t.AddRow(c, meanTotal(non), meanTotal(van), overhead,
			100*stats.OverheadRatio(meanTotal(non).Mean, meanTotal(van).Mean))
		if c == DefaultConcurrency {
			rep.Notes = append(rep.Notes, fmt.Sprintf(
				"at c=200 enabling SR-IOV adds %v (+%.0f%%); paper: +12.2s (+305%%)",
				overhead.Mean.Round(10*time.Millisecond),
				100*stats.OverheadRatio(meanTotal(non).Mean, meanTotal(van).Mean)))
		}
	}
	return rep, nil
}

// Fig5 reproduces Figure 5: the per-container timeline breakdown of a
// 200-container vanilla startup, rendered as an ASCII Gantt chart.
func (x *Exec) Fig5(n int) (*Report, error) {
	rs, err := runAll[*cluster.Result](x, []startupSpec{{Baseline: cluster.BaselineVanilla, N: n}})
	if err != nil {
		return nil, err
	}
	res := rs[0]
	rep := &Report{
		ID:    "fig5",
		Title: fmt.Sprintf("Breakdown of time-consuming steps (%d concurrent containers)", n),
		Text:  res.primary().Recorder.Timeline(100, 25),
	}
	seedNote(rep, x, "timeline")
	return rep, nil
}

// Table1 reproduces Table 1: per-stage proportions of the average and the
// 99th-percentile startup time under vanilla SR-IOV.
func (x *Exec) Table1(n int) (*Report, error) {
	rs, err := runAll[*cluster.Result](x, []startupSpec{{Baseline: cluster.BaselineVanilla, N: n}})
	if err != nil {
		return nil, err
	}
	res := rs[0]
	rep := &Report{
		ID:    "tab1",
		Title: "Time proportions of time-consuming steps (vanilla)",
		Table: res.primary().Recorder.BreakdownTable(breakdownStages),
	}
	vfShares := make([]float64, 0, len(res))
	for _, r := range res {
		var vfAvg float64
		for _, row := range r.Recorder.Breakdown(breakdownStages) {
			if row.Stage.VFRelated() {
				vfAvg += row.PropAvg
			}
		}
		vfShares = append(vfShares, vfAvg)
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"VF-related steps account for %s%% of average startup; paper: 70.1%%", pctString(vfShares)))
	seedNote(rep, x, "breakdown table")
	return rep, nil
}

// Fig11 reproduces Figure 11: average startup time for every baseline at
// c=200, split into VF-related and other time.
func (x *Exec) Fig11(n int) (*Report, error) {
	names := cluster.Baselines()
	specs := make([]startupSpec, len(names))
	for i, name := range names {
		specs[i] = startupSpec{Baseline: name, N: n}
	}
	rs, err := runAll[*cluster.Result](x, specs)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("baseline", "avg total", "VF-related", "others", "reduction vs vanilla %")
	rep := &Report{ID: "fig11", Title: fmt.Sprintf("Average startup time, concurrency=%d", n), Table: t}
	var vanilla, fastiov, vanVF, fioVF time.Duration
	for i, name := range names {
		res := rs[i]
		mean := meanTotal(res)
		vf := meanVFRelated(res)
		others := res.metric(func(r *cluster.Result) time.Duration {
			return r.Totals.Mean() - r.VFRelated.Mean()
		})
		if name == cluster.BaselineVanilla {
			vanilla, vanVF = mean.Mean, vf.Mean
		}
		if name == cluster.BaselineFastIOV {
			fastiov, fioVF = mean.Mean, vf.Mean
		}
		red := 0.0
		if vanilla > 0 {
			red = 100 * stats.ReductionRatio(vanilla, mean.Mean)
		}
		t.AddRow(name, mean, vf, others, red)
	}
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("FastIOV reduces average startup by %.1f%%; paper: 65.7%%",
			100*stats.ReductionRatio(vanilla, fastiov)),
		fmt.Sprintf("FastIOV reduces VF-related time by %.1f%%; paper: 96.1%%",
			100*stats.ReductionRatio(vanVF, fioVF)))
	return rep, nil
}

// Fig12 reproduces Figure 12: the startup-time CDF at c=200 for No-Net,
// FastIOV, Pre100, and Vanilla.
func (x *Exec) Fig12(n int) (*Report, error) {
	names := []string{cluster.BaselineNoNet, cluster.BaselineFastIOV, cluster.BaselinePre100, cluster.BaselineVanilla}
	specs := make([]startupSpec, len(names))
	for i, name := range names {
		specs[i] = startupSpec{Baseline: name, N: n}
	}
	rs, err := runAll[*cluster.Result](x, specs)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("baseline", "p10", "p50", "p90", "p99", "max")
	rep := &Report{ID: "fig12", Title: fmt.Sprintf("Startup time distribution, concurrency=%d", n), Table: t}
	var text strings.Builder
	var vanP99, fioP99 time.Duration
	for i, name := range names {
		res := rs[i]
		t.AddRow(name, totalPercentile(res, 10), totalPercentile(res, 50), totalPercentile(res, 90),
			totalPercentile(res, 99), res.metric(func(r *cluster.Result) time.Duration { return r.Totals.Max() }))
		fmt.Fprintf(&text, "%s CDF: ", name)
		for _, pt := range res.primary().Totals.CDF(10) {
			fmt.Fprintf(&text, "(%.2f,%v) ", pt.Frac, pt.Value.Round(10*time.Millisecond))
		}
		text.WriteByte('\n')
		if name == cluster.BaselineVanilla {
			vanP99 = totalPercentile(res, 99).Mean
		}
		if name == cluster.BaselineFastIOV {
			fioP99 = totalPercentile(res, 99).Mean
		}
	}
	rep.Text = text.String()
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"FastIOV reduces p99 startup by %.1f%%; paper: 75.4%%",
		100*stats.ReductionRatio(vanP99, fioP99)))
	seedNote(rep, x, "CDF")
	return rep, nil
}

// Fig13a reproduces Figure 13a: vanilla vs FastIOV startup distribution as
// concurrency grows, 512 MB per container.
func (x *Exec) Fig13a(concurrencies []int) (*Report, error) {
	if len(concurrencies) == 0 {
		concurrencies = []int{10, 50, 100, 200}
	}
	var specs []startupSpec
	for _, c := range concurrencies {
		specs = append(specs,
			startupSpec{Baseline: cluster.BaselineVanilla, N: c},
			startupSpec{Baseline: cluster.BaselineFastIOV, N: c})
	}
	rs, err := runAll[*cluster.Result](x, specs)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("concurrency", "vanilla avg", "vanilla p99", "fastiov avg", "fastiov p99", "reduction %")
	rep := &Report{ID: "fig13a", Title: "Impact of concurrency (512 MB per container)", Table: t}
	for i, c := range concurrencies {
		van, fio := rs[2*i], rs[2*i+1]
		t.AddRow(c, meanTotal(van), totalPercentile(van, 99), meanTotal(fio), totalPercentile(fio, 99),
			100*stats.ReductionRatio(meanTotal(van).Mean, meanTotal(fio).Mean))
	}
	rep.Notes = append(rep.Notes, "paper: reductions range 46.7%-65.6%, growing with concurrency")
	return rep, nil
}

// layoutWithRAM scales the default layout to the given guest RAM size.
func layoutWithRAM(ram int64) hypervisor.Layout {
	l := hypervisor.DefaultLayout()
	l.RAMBytes = ram
	return l
}

// Fig13b reproduces Figure 13b: vanilla vs FastIOV as per-container memory
// grows from 512 MB to 2 GB at concurrency 50.
func (x *Exec) Fig13b(memories []int64, concurrency int) (*Report, error) {
	if len(memories) == 0 {
		memories = []int64{512 << 20, 1 << 30, 2 << 30}
	}
	if concurrency <= 0 {
		concurrency = 50
	}
	var specs []startupSpec
	for _, ram := range memories {
		l := layoutWithRAM(ram)
		specs = append(specs,
			startupSpec{Baseline: cluster.BaselineVanilla, N: concurrency, Layout: &l},
			startupSpec{Baseline: cluster.BaselineFastIOV, N: concurrency, Layout: &l})
	}
	rs, err := runAll[*cluster.Result](x, specs)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("memory/ctr", "vanilla avg", "fastiov avg", "reduction %")
	rep := &Report{ID: "fig13b", Title: fmt.Sprintf("Impact of memory allocation (concurrency=%d)", concurrency), Table: t}
	var first, last [2]time.Duration
	for i, ram := range memories {
		van, fio := rs[2*i], rs[2*i+1]
		t.AddRow(fmt.Sprintf("%dMB", ram>>20), meanTotal(van), meanTotal(fio),
			100*stats.ReductionRatio(meanTotal(van).Mean, meanTotal(fio).Mean))
		if i == 0 {
			first = [2]time.Duration{meanTotal(van).Mean, meanTotal(fio).Mean}
		}
		if i == len(memories)-1 {
			last = [2]time.Duration{meanTotal(van).Mean, meanTotal(fio).Mean}
		}
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"512MB->%dMB growth: vanilla +%.1f%%, fastiov +%.1f%% (paper: +60.5%% vs +21.5%%)",
		memories[len(memories)-1]>>20,
		100*stats.OverheadRatio(first[0], last[0]),
		100*stats.OverheadRatio(first[1], last[1])))
	return rep, nil
}

// fullyLoadedLayout divides 80% of host memory evenly among c containers,
// rounded down to 512 MB units (the Fig. 13c / Fig. 16i-l geometry).
func fullyLoadedLayout(spec cluster.HostSpec, c int) hypervisor.Layout {
	perCtr := spec.Memory.TotalBytes * 8 / 10 / int64(c)
	l := hypervisor.DefaultLayout()
	unit := int64(512 << 20)
	ram := (perCtr - l.ImageBytes - l.FirmwareBytes) / unit * unit
	if ram < unit {
		ram = unit
	}
	l.RAMBytes = ram
	return l
}

// Fig13c reproduces Figure 13c: the fully-loaded server — host memory is
// divided evenly among the concurrent containers.
func (x *Exec) Fig13c(concurrencies []int) (*Report, error) {
	if len(concurrencies) == 0 {
		concurrencies = []int{10, 50, 100, 200}
	}
	spec := cluster.DefaultHostSpec()
	var specs []startupSpec
	layouts := make([]hypervisor.Layout, len(concurrencies))
	for i, c := range concurrencies {
		layouts[i] = fullyLoadedLayout(spec, c)
		specs = append(specs,
			startupSpec{Baseline: cluster.BaselineVanilla, N: c, Layout: &layouts[i]},
			startupSpec{Baseline: cluster.BaselineFastIOV, N: c, Layout: &layouts[i]})
	}
	rs, err := runAll[*cluster.Result](x, specs)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("concurrency", "memory/ctr", "vanilla avg", "fastiov avg", "reduction %")
	rep := &Report{ID: "fig13c", Title: "Fully loaded server (resources evenly divided)", Table: t}
	for i, c := range concurrencies {
		van, fio := rs[2*i], rs[2*i+1]
		t.AddRow(c, fmt.Sprintf("%dMB", layouts[i].RAMBytes>>20), meanTotal(van), meanTotal(fio),
			100*stats.ReductionRatio(meanTotal(van).Mean, meanTotal(fio).Mean))
	}
	rep.Notes = append(rep.Notes, "paper: reduction grows from 65.7% at c=200 to 79.5% at c=10")
	return rep, nil
}

// Fig14 reproduces Figure 14: FastIOV vs the IPvtap software CNI, with the
// software CNI's bottleneck stages broken out.
func (x *Exec) Fig14(n int) (*Report, error) {
	rs, err := runAll[*cluster.Result](x, []startupSpec{
		{Baseline: cluster.BaselineIPvtap, N: n},
		{Baseline: cluster.BaselineFastIOV, N: n},
	})
	if err != nil {
		return nil, err
	}
	ipv, fio := rs[0], rs[1]
	t := stats.NewTable("metric", "ipvtap", "fastiov")
	t.AddRow("avg total", meanTotal(ipv), meanTotal(fio))
	t.AddRow("p99 total", totalPercentile(ipv, 99), totalPercentile(fio, 99))
	t.AddRow("addCNI stage", stageMean(ipv, telemetry.StageAddCNI), stageMean(fio, telemetry.StageAddCNI))
	t.AddRow("cgroup stage", stageMean(ipv, telemetry.StageCgroup), stageMean(fio, telemetry.StageCgroup))
	rep := &Report{ID: "fig14", Title: fmt.Sprintf("Comparison with software CNI (concurrency=%d)", n), Table: t}
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"FastIOV average is %.1f%% lower than IPvtap; paper: 31.8%%",
		100*stats.ReductionRatio(meanTotal(ipv).Mean, meanTotal(fio).Mean)))
	return rep, nil
}

// memPerfOutcome is one §6.5 measurement: EPT faults taken and the elapsed
// time of the 10-pass tinymembench-style copy loop.
type memPerfOutcome struct {
	Faults  int
	Elapsed time.Duration
}

// memPerfSpec is one §6.5 run: boot the named baseline, start one
// container, and run the in-guest memory workload.
type memPerfSpec struct{ Baseline string }

func (memPerfSpec) scope() string    { return "memperf" }
func (s memPerfSpec) params() string { return "b=" + s.Baseline }

func (s memPerfSpec) run(_ *Exec, seed uint64) (*memPerfOutcome, error) {
	opts, err := cluster.OptionsFor(s.Baseline)
	if err != nil {
		return nil, err
	}
	opts.Seed = seed
	h, err := cluster.NewHost(cluster.DefaultHostSpec(), opts)
	if err != nil {
		return nil, err
	}
	out := &memPerfOutcome{}
	var runErr error
	h.K.Go("bench", func(p *sim.Proc) {
		var sb *cri.Sandbox
		sb, runErr = h.Eng.RunPodSandbox(p, 0)
		if runErr != nil {
			return
		}
		vm := sb.MVM.VM
		start := p.Now()
		// memcpy pass over a 256 MB working set, then 9 re-passes that
		// hit the EPT. Each pass touches every page (reads+writes).
		ws := int64(256 << 20)
		for pass := 0; pass < 10; pass++ {
			if terr := vm.TouchRange(p, 0, ws, pass%2 == 1); terr != nil {
				runErr = terr
				return
			}
		}
		out.Elapsed = p.Now() - start
		out.Faults = vm.Faults
	})
	h.K.Run()
	if runErr != nil {
		return nil, runErr
	}
	return out, nil
}

func (memPerfSpec) fingerprint(o *memPerfOutcome) []byte {
	return fmt.Appendf(nil, "faults=%d elapsed=%d", o.Faults, o.Elapsed)
}

// MemPerf reproduces §6.5: the impact of FastIOV's EPT-fault interception
// on in-guest memory performance, tinymembench-style.
func (x *Exec) MemPerf() (*Report, error) {
	baselines := []string{cluster.BaselineVanilla, cluster.BaselineFastIOV}
	perBaseline, err := runAll[*memPerfOutcome](x, []memPerfSpec{{baselines[0]}, {baselines[1]}})
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("config", "EPT faults", "10-pass time", "per-pass")
	for i, name := range baselines {
		elapsed := perBaseline[i].metric(func(o *memPerfOutcome) time.Duration { return o.Elapsed })
		perPass := perBaseline[i].metric(func(o *memPerfOutcome) time.Duration { return o.Elapsed / 10 })
		t.AddRow(name, perBaseline[i].primary().Faults, elapsed, perPass)
	}
	rep := &Report{ID: "sec6.5", Title: "Impact on memory access performance (tinymembench-style)", Table: t}
	van := perBaseline[0].metric(func(o *memPerfOutcome) time.Duration { return o.Elapsed })
	fio := perBaseline[1].metric(func(o *memPerfOutcome) time.Duration { return o.Elapsed })
	degr := 100 * (float64(fio.Mean)/float64(van.Mean) - 1)
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"FastIOV memory-path degradation: %.2f%%; paper: within 1%%", degr))
	return rep, nil
}
