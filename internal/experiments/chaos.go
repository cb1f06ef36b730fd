package experiments

import (
	"fmt"

	"fastiov/internal/cluster"
	"fastiov/internal/fault"
	"fastiov/internal/stats"
	"fastiov/internal/telemetry"
)

// chaosProbs is the failure-probability sweep of the chaos experiment. The
// leading 0 row is the fault-free control: it pins an empty plan, so it
// shares cache entries (and must agree byte-for-byte) with every other
// fault-free FastIOV run.
var chaosProbs = []float64{0, 0.02, 0.05, 0.10, 0.20}

// chaosPlan builds the sweep's plan at failure probability p: FLR failures
// at full rate, DMA-map and CNI-add timeouts at half rate, scrubber stalls
// at full rate with doubled pass latency, and memory bandwidth degraded in
// proportion to p. p <= 0 yields an empty (fault-free) plan.
func chaosPlan(p float64) *fault.Plan {
	pl := fault.NewPlan()
	if p <= 0 {
		return pl
	}
	pl.Set(fault.SiteVFIOReset, fault.Rule{Prob: p})
	pl.Set(fault.SiteDMAMap, fault.Rule{Prob: p / 2})
	pl.Set(fault.SiteCNIAdd, fault.Rule{Prob: p / 2})
	pl.Set(fault.SiteScrubber, fault.Rule{Prob: p, Latency: 2})
	pl.Set(fault.SiteMemBW, fault.Rule{Latency: 1 + p})
	return pl
}

// injectedPerRun sums a result's injected-fault counters.
func injectedPerRun(r *cluster.Result) int {
	total := 0
	for _, st := range r.FaultStats {
		total += st.Injected
	}
	return total
}

// Chaos sweeps fault probability over FastIOV startup at concurrency n: for
// each probability, start n containers under the chaos plan and report
// survival rate, the survivors' latency distribution, and the injector's
// activity. Startup failures (retry budgets exhausted) remove their
// container from the latency population rather than aborting the run —
// exactly the degraded-but-alive regime the robustness policies target.
func (x *Exec) Chaos(n int) (*Report, error) {
	specs := make([]startupSpec, len(chaosProbs))
	for i, p := range chaosProbs {
		specs[i] = startupSpec{Baseline: cluster.BaselineFastIOV, N: n, observe: observe{Faults: chaosPlan(p)}}
	}
	rs, err := runAll[*cluster.Result](x, specs)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("fault-p", "success %", "mean", "p50", "p99", "injected/run", "retry/ctr")
	rep := &Report{ID: "chaos", Title: fmt.Sprintf("Chaos sweep: FastIOV startup under injected faults (concurrency=%d)", n)}
	for i, p := range chaosProbs {
		res := rs[i]
		rates := make([]float64, 0, len(res))
		injected := make([]float64, 0, len(res))
		for _, r := range res {
			rates = append(rates, 100*r.SuccessRate())
			injected = append(injected, float64(injectedPerRun(r)))
		}
		injMean, _, _ := stats.FloatEstimateOf(injected)
		t.AddRow(fmt.Sprintf("%.2f", p), pctString(rates),
			meanTotal(res), totalPercentile(res, 50), totalPercentile(res, 99),
			fmt.Sprintf("%.1f", injMean), stageMean(res, telemetry.StageRetry))
	}
	rep.Table = t
	worst := rs[len(rs)-1].primary()
	for _, st := range worst.FaultStats {
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"p=%.2f seed %d: site %s fired %d/%d occurrences",
			chaosProbs[len(chaosProbs)-1], x.seeds[0], st.Site, st.Injected, st.Occurrences))
	}
	rep.Notes = append(rep.Notes,
		"success % counts containers whose startup survived retry/backoff/degradation; latency columns cover survivors only")
	seedNote(rep, x, "fault-site note")
	return rep, nil
}
