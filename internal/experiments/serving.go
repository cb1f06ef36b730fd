package experiments

import (
	"fmt"
	"strings"
	"time"

	"fastiov/internal/cluster"
	"fastiov/internal/serve"
	"fastiov/internal/stats"
)

// DefaultServeRates is the offered-load ladder the serving experiment
// sweeps: under vanilla's ~35 req/s saturation point, at it, and 2×/4× past
// it — the overload regime where admission policy decides the tail.
var DefaultServeRates = []float64{16, 32, 64, 128}

// servingFlashSpec is the flash-crowd clause appended to the default
// workload for the burst rows: a 6× spike two-fifths into the window.
const servingFlashSpec = ";flash@3s:x=6,for=2s"

// ----------------------------------------------------------------------
// Serving scenarios: one admission policy × baseline at one offered rate,
// through the harness so seeds fan out, results cache, and
// -verify-determinism double-runs every admission decision.

// serveSpec identifies one serving run.
type serveSpec struct {
	Baseline string
	Policy   string
	Hosts    int
	Rate     float64
	// Workload is the canonical tenant spec ("" = serve default).
	Workload string
	observe
}

func (serveSpec) scope() string { return "serve" }

func (s serveSpec) params() string {
	var b strings.Builder
	fmt.Fprintf(&b, "b=%s policy=%s hosts=%d rate=%g", s.Baseline, s.Policy, s.Hosts, s.Rate)
	if s.Workload != "" {
		fmt.Fprintf(&b, " w=%s", s.Workload)
	}
	s.writeKey(&b)
	return b.String()
}

// resolve inherits the executor-wide observers. Serving is the one spec
// kind that records journeys, so it alone inherits that switch too.
func (s *serveSpec) resolve(x *Exec) {
	s.Journeys = inherit(s.Journeys, x.journeys)
	s.observe.resolve(x)
}

// run executes the spec at one seed: a full serving window over an audited
// fleet, failing loudly on any leak — shed requests included.
func (s serveSpec) run(_ *Exec, seed uint64) (*serve.Result, error) {
	res, err := serve.Run(serve.Config{
		Baseline:  s.Baseline,
		Policy:    s.Policy,
		Hosts:     s.Hosts,
		Workload:  s.Workload,
		Rate:      s.Rate,
		Seed:      seed,
		Faults:    s.Faults,
		Trace:     s.traced(),
		Metrics:   s.metered(),
		Journeys:  s.journeyed(),
		AlertSpec: s.Alerts,
		Audit:     true,
	})
	if err != nil {
		return nil, fmt.Errorf("%s/%s rate=%g: %w", s.Baseline, s.Policy, s.Rate, err)
	}
	// Standing invariant: request conservation at drain and clean leak
	// audits, per host and fleet-wide, however much the policy shed.
	if res.Arrived != res.Admitted+res.Shed() {
		return nil, fmt.Errorf("%s/%s rate=%g: conservation broken: arrived %d != admitted %d + shed %d",
			s.Baseline, s.Policy, s.Rate, res.Arrived, res.Admitted, res.Shed())
	}
	if !res.Fleet.CleanPerHost() {
		for i, rep := range res.Fleet.PerHost {
			if !rep.Clean() {
				return nil, fmt.Errorf("%s/%s rate=%g: host %d dirty leak audit:\n%s",
					s.Baseline, s.Policy, s.Rate, i, rep)
			}
		}
	}
	if !res.Fleet.Leaks.Clean() {
		return nil, fmt.Errorf("%s/%s rate=%g: fleet-wide dirty leak audit:\n%s",
			s.Baseline, s.Policy, s.Rate, res.Fleet.Leaks)
	}
	return res, nil
}

// fingerprint covers the admission accounting, per-tenant tallies, every
// sojourn, and the fleet fingerprint beneath (placements, audits, observer
// digests).
func (serveSpec) fingerprint(res *serve.Result) []byte { return res.Fingerprint() }

// servePolicies returns the admission policies a serving-plane experiment
// sweeps: all of them, or the one the executor pins.
func (x *Exec) servePolicies() ([]string, error) {
	if x.servePolicy == "" {
		return serve.Policies(), nil
	}
	for _, p := range serve.Policies() {
		if p == x.servePolicy {
			return []string{p}, nil
		}
	}
	return nil, fmt.Errorf("experiments: unknown admission policy %q (want %v)", x.servePolicy, serve.Policies())
}

// Serving sweeps admission policy × baseline across an offered-load ladder:
// the admission-control study. An open-loop multi-tenant arrival process
// feeds pod-start requests through the serving control plane at rates from
// under vanilla's saturation point to 4× past it. The headline is the cliff
// and the recovery: the no-admission baseline (fifo) lets the queue — and
// the admitted p99 — grow without bound as offered load passes capacity,
// while SLO-aware shedding holds p99 near its target by trading goodput, and
// per-tenant token buckets cap each tenant at its contracted share. A
// flash-crowd row stresses the extreme policies with a 6× burst mid-window.
func (x *Exec) Serving(n int) (*Report, error) {
	hosts := x.serveHosts
	if hosts <= 0 {
		hosts = serve.DefaultHosts
	}
	workload := x.serveTenants
	if workload != "" {
		if _, err := serve.ParseWorkload(workload); err != nil {
			return nil, err
		}
	}
	policies, err := x.servePolicies()
	if err != nil {
		return nil, err
	}
	rates := append([]float64(nil), DefaultServeRates...)
	switch {
	case x.serveRate > 0:
		// An explicit -rate pins a single offered load.
		rates = []float64{x.serveRate}
	case n > 0:
		// A concurrency override marks a below-paper-scale run (the defConc
		// convention): a short ladder ending at the override.
		rates = []float64{float64(n) / 2, float64(n)}
		if rates[0] < 1 {
			rates = rates[1:]
		}
	}
	baselines := []string{cluster.BaselineVanilla, cluster.BaselineFastIOV}

	var specs []serveSpec
	for _, p := range policies {
		for _, b := range baselines {
			for _, r := range rates {
				specs = append(specs, serveSpec{Baseline: b, Policy: p, Hosts: hosts, Rate: r, Workload: workload})
			}
		}
	}
	// Flash-crowd rows: the extreme policies under a 6× mid-window burst at
	// the ladder's midpoint rate, on the collapse-prone baseline. Only when
	// the workload is the default — a custom tenant spec keeps its grammar.
	flashAt := rates[len(rates)/2]
	flashPolicies := []string{serve.PolicyFIFO, serve.PolicySLOAware}
	if x.servePolicy != "" {
		flashPolicies = []string{x.servePolicy}
	}
	flashStart := len(specs)
	if workload == "" {
		for _, p := range flashPolicies {
			specs = append(specs, serveSpec{
				Baseline: cluster.BaselineVanilla, Policy: p, Hosts: hosts, Rate: flashAt,
				Workload: serve.DefaultWorkloadSpec + servingFlashSpec,
			})
		}
	}

	rs, err := runAll[*serve.Result](x, specs)
	if err != nil {
		return nil, err
	}

	rep := &Report{ID: "serving", Title: fmt.Sprintf(
		"Admission-controlled serving: policy × baseline across offered load (%d hosts, %s window, SLO %s)",
		hosts, serve.DefaultWindow, serve.DefaultSLO)}
	t := stats.NewTable("baseline", "policy", "rate", "arrived", "shed%", "shed q/p/s/g", "goodput", "p50", "p99", "p99.9", "fair")
	// p99 by (baseline, policy, rate) for the notes.
	type key struct {
		b, p string
		r    float64
	}
	p99s := map[key]time.Duration{}
	sheds := map[key]float64{}
	goods := map[key]float64{}
	for i, sp := range specs {
		m := rs[i]
		pri := m.primary()
		rateLabel := fmt.Sprintf("%g", sp.Rate)
		if i >= flashStart {
			rateLabel += "+flash"
		}
		t.AddRow(sp.Baseline, sp.Policy, rateLabel,
			pri.Arrived,
			fmt.Sprintf("%.1f", 100*pri.ShedRate()),
			fmt.Sprintf("%d/%d/%d/%d", pri.ShedQueueFull, pri.ShedPolicy, pri.ShedQueue, pri.CrashGiveups),
			pri.Goodput(),
			m.metric(func(r *serve.Result) time.Duration { return r.Sojourns.P50() }),
			m.metric(func(r *serve.Result) time.Duration { return r.Sojourns.P99() }),
			m.metric(func(r *serve.Result) time.Duration { return r.Sojourns.P999() }),
			fmt.Sprintf("%.3f", pri.Fairness()))
		if i < flashStart {
			k := key{sp.Baseline, sp.Policy, sp.Rate}
			p99s[k] = m.metric(func(r *serve.Result) time.Duration { return r.Sojourns.P99() }).Mean
			sheds[k] = pri.ShedRate()
			goods[k] = pri.Goodput()
		}
	}
	rep.Table = t

	// Headline notes need both extreme policies on vanilla at the ladder's
	// endpoints.
	lo, hi := rates[0], rates[len(rates)-1]
	van := cluster.BaselineVanilla
	fifoLo, okA := p99s[key{van, serve.PolicyFIFO, lo}]
	fifoHi, okB := p99s[key{van, serve.PolicyFIFO, hi}]
	if okA && okB && fifoHi > fifoLo {
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"no admission control, no bound: vanilla/fifo p99 sojourn grows %v → %v (%.1f×) as offered load rises %g → %g req/s — the queue absorbs every arrival and the tail pays",
			fifoLo.Round(time.Millisecond), fifoHi.Round(time.Millisecond),
			float64(fifoHi)/float64(fifoLo), lo, hi))
	}
	if sloHi, ok := p99s[key{van, serve.PolicySLOAware, hi}]; ok {
		k := key{van, serve.PolicySLOAware, hi}
		note := fmt.Sprintf(
			"SLO-aware shedding holds the tail at %g req/s offered: p99 %v against the %s target by shedding %.0f%% of arrivals (goodput %.1f/s",
			hi, sloHi.Round(time.Millisecond), serve.DefaultSLO, 100*sheds[k], goods[k])
		if _, ran := p99s[key{van, serve.PolicyFIFO, hi}]; ran {
			note += fmt.Sprintf(" vs fifo's %.1f/s at the same load", goods[key{van, serve.PolicyFIFO, hi}])
		}
		rep.Notes = append(rep.Notes, note+")")
	}
	seedNote(rep, x, "serving table")
	return rep, nil
}
