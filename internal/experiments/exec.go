package experiments

import (
	"fmt"
	"strings"
	"time"

	"fastiov/internal/cluster"
	"fastiov/internal/fault"
	"fastiov/internal/harness"
	"fastiov/internal/hypervisor"
	"fastiov/internal/serverless"
	"fastiov/internal/stats"
	"fastiov/internal/telemetry"
	"fastiov/internal/trace"
)

// Exec is a configured experiment executor: a worker pool that fans
// independent simulation runs (scenario × seed) across GOMAXPROCS-style
// parallelism, plus the seed list each scenario sweeps. One Exec shared
// across experiments also shares one result cache, so scenarios that
// several figures need (vanilla at c=200 appears in six of them) simulate
// exactly once.
type Exec struct {
	pool  *harness.Pool
	seeds []uint64
	// faults is the executor-wide default fault plan (nil = fault-free):
	// every spec that does not pin its own plan inherits it. The chaos
	// experiment pins per-row plans and is therefore unaffected.
	faults *fault.Plan
	// trace enables event-sourced tracing on every spec that does not pin
	// its own setting. Traced runs carry a trace on the result and verify
	// the critical-path decomposition, but render identically to untraced
	// runs; the contention experiment pins tracing on regardless.
	trace bool
	// metrics enables the simulated-time metrics registry on every spec
	// that does not pin its own setting. Metered runs carry a sealed
	// registry on the result but render identically to unmetered runs; the
	// saturation experiment pins metrics on regardless.
	metrics bool
	// journeys enables per-request journey tracing on every serving spec
	// that does not pin its own setting. Journey-traced runs carry a span
	// recorder on the result but render identically to untraced runs; the
	// slowatch experiment pins journeys (and alert rules) on regardless.
	journeys bool
	// fleetHosts overrides the fleet experiment's host count (<= 0 selects
	// the paper-scale default); fleetPolicy restricts it to one placement
	// policy ("" sweeps all of them).
	fleetHosts  int
	fleetPolicy string
	// serveHosts, servePolicy, serveTenants, and serveRate shape the serving
	// experiment: fleet size (<= 0 selects the serve default), admission
	// policy ("" sweeps all of them), canonical workload spec ("" selects
	// the default tenant mix), and a pinned offered rate (<= 0 sweeps the
	// offered-load ladder).
	serveHosts   int
	servePolicy  string
	serveTenants string
	serveRate    float64
	// availMTBF pins the availability experiment to a single host-MTBF
	// ladder cell (<= 0 sweeps the default MTBF/MTTR ladder). The
	// experiment also honours serveHosts, servePolicy, and serveRate.
	availMTBF time.Duration
	// snapshots enables boot-prefix snapshot caching: the first scenario
	// needing a given (boot inputs, seed) boots a host and captures a
	// cluster.Snapshot into the singleflight cache under Scope "boot";
	// every scenario sharing that boot then clones the snapshot instead of
	// re-simulating the boot prefix. Restores are verified byte-transparent
	// (kernel clock and audit baseline must match the captured boot), so
	// results are identical with snapshots on or off.
	snapshots bool
}

// NewExec returns an executor with the given worker count (<= 0 selects
// GOMAXPROCS) and seed list (empty selects the historical default seed 1,
// keeping single-seed output identical to pre-sweep runs).
func NewExec(workers int, seeds []uint64) *Exec {
	if len(seeds) == 0 {
		seeds = []uint64{1}
	}
	return &Exec{pool: harness.New(workers), seeds: append([]uint64(nil), seeds...), snapshots: true}
}

// SeedList returns 1..k, the conventional seed sweep.
func SeedList(k int) []uint64 {
	if k < 1 {
		k = 1
	}
	seeds := make([]uint64, k)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	return seeds
}

// SetVerify toggles scenario-level determinism verification: every sim run
// executes twice and any byte-level divergence of its canonical result
// encoding fails the experiment.
func (x *Exec) SetVerify(v bool) { x.pool.SetVerify(v) }

// SetSnapshots toggles boot-prefix snapshot caching (on by default).
// Results are byte-identical either way; turning it off forces every
// scenario to re-simulate host boot, which the transparency regression
// tests use as the reference.
func (x *Exec) SetSnapshots(v bool) { x.snapshots = v }

// SetFaults installs an executor-wide fault plan inherited by every spec
// that does not pin its own. The plan participates in cache keys, so
// faulted and fault-free runs of the same scenario never share results.
func (x *Exec) SetFaults(pl *fault.Plan) { x.faults = pl }

// SetTrace enables event-sourced tracing for every spec that does not pin
// its own setting. Tracing participates in cache keys, so traced and
// untraced runs of the same scenario never share results.
func (x *Exec) SetTrace(v bool) { x.trace = v }

// SetMetrics enables the simulated-time metrics registry for every spec
// that does not pin its own setting. Metrics participate in cache keys, so
// metered and unmetered runs of the same scenario never share results.
func (x *Exec) SetMetrics(v bool) { x.metrics = v }

// SetJourneys enables per-request journey tracing for every serving spec
// that does not pin its own setting. Journeys participate in cache keys, so
// traced and untraced runs of the same scenario never share results.
func (x *Exec) SetJourneys(v bool) { x.journeys = v }

// SetFleet sizes the fleet experiment: hosts overrides the host count
// (<= 0 keeps the paper-scale default) and policy restricts the sweep to
// one placement policy ("" sweeps all of them).
func (x *Exec) SetFleet(hosts int, policy string) {
	x.fleetHosts = hosts
	x.fleetPolicy = policy
}

// SetServe shapes the serving experiment: hosts sizes the fleet (<= 0 keeps
// the serve default), policy restricts the sweep to one admission policy
// ("" sweeps all of them), tenants overrides the workload spec ("" keeps
// the default mix), and rate pins a single offered load (<= 0 sweeps the
// ladder).
func (x *Exec) SetServe(hosts int, policy, tenants string, rate float64) {
	x.serveHosts = hosts
	x.servePolicy = policy
	x.serveTenants = tenants
	x.serveRate = rate
}

// SetAvailability pins the availability experiment's host MTBF (<= 0 keeps
// the default MTBF/MTTR ladder sweep).
func (x *Exec) SetAvailability(mtbf time.Duration) { x.availMTBF = mtbf }

// CacheStats aliases the pool's traffic counters so callers above the
// experiments layer need not import the harness directly.
type CacheStats = harness.Stats

// CacheStats reports scenario-cache traffic.
func (x *Exec) CacheStats() CacheStats { return x.pool.Stats() }

// FirstDivergence re-exports harness.FirstDivergence for report-level
// byte comparison.
func FirstDivergence(a, b []byte) (offset int, detail string) {
	return harness.FirstDivergence(a, b)
}

// ----------------------------------------------------------------------
// The scenario runner.

// scenario is one spec kind: an independently schedulable simulation with
// result type R. A kind supplies its cache scope and canonical params (equal
// specs at equal seeds are one simulation), a typed run at one seed, and a
// typed canonical fingerprint that determinism verification byte-compares
// across a double run. Kinds that embed observe inherit the executor-wide
// observers before their params are taken.
type scenario[R any] interface {
	scope() string
	params() string
	run(x *Exec, seed uint64) (R, error)
	fingerprint(R) []byte
}

// multi is one scenario's outcome at every executor seed, in seed-list
// order. Scalar metrics aggregate across seeds into mean ± 95% CI; rich
// renderings (timelines, breakdowns, CDFs) come from the primary (first)
// seed's full record.
type multi[R any] []R

// primary returns the first seed's result.
func (m multi[R]) primary() R { return m[0] }

// metric aggregates f over every seed's result.
func (m multi[R]) metric(f func(R) time.Duration) stats.Estimate {
	return stats.EstimateMetric(m, f)
}

// runAll fans the specs across the pool at every seed and returns one
// multi per spec, in input order. Results are cached and shared across
// experiments, so they must be treated as immutable.
func runAll[R any, S scenario[R]](x *Exec, specs []S) ([]multi[R], error) {
	jobs := make([]harness.Job, 0, len(specs)*len(x.seeds))
	for _, sp := range specs {
		if o, ok := any(&sp).(interface{ resolve(*Exec) }); ok {
			o.resolve(x)
		}
		key := harness.Key{Scope: sp.scope(), Params: sp.params()}
		for _, seed := range x.seeds {
			key.Seed = seed
			jobs = append(jobs, harness.Job{
				Key:         key,
				Fn:          func() (any, error) { return sp.run(x, seed) },
				Fingerprint: func(v any) ([]byte, error) { return sp.fingerprint(v.(R)), nil },
			})
		}
	}
	vals, err := x.pool.Do(jobs)
	if err != nil {
		return nil, err
	}
	out := make([]multi[R], len(specs))
	for i := range out {
		out[i] = make(multi[R], len(x.seeds))
		for j := range x.seeds {
			out[i][j] = vals[i*len(x.seeds)+j].(R)
		}
	}
	return out, nil
}

// observe is a spec's observer pins: the fault plan, the trace, metrics and
// journey recorders, and serving's alert rules. A nil pin inherits the
// executor-wide setting (resolve). The resolved observers join the cache
// key (writeKey), so observed and unobserved runs of one scenario never
// share results.
type observe struct {
	// Faults pins the fault plan. A non-nil empty plan pins "fault-free"
	// (the chaos p=0 row), which canonicalizes to the same cache key as an
	// unfaulted spec.
	Faults *fault.Plan
	// Trace pins event-sourced tracing (the contention experiment pins it
	// on). Traced runs verify the critical-path decomposition but render
	// identically to untraced runs.
	Trace *bool
	// Metrics pins the simulated-time metrics registry (the saturation
	// experiment pins it on).
	Metrics *bool
	// Journeys pins per-request journey tracing. Only serving specs record
	// journeys, so only they inherit the executor-wide switch.
	Journeys *bool
	// Alerts is an alert-rule spec the simulated-time engine evaluates
	// during a serving run ("" runs no engine). Alert engines read the
	// metrics registry, so rules force Metrics on.
	Alerts string
}

// resolve replaces every nil pin with the executor-wide setting.
func (o *observe) resolve(x *Exec) {
	if o.Faults == nil {
		o.Faults = x.faults
	}
	o.Trace = inherit(o.Trace, x.trace)
	o.Metrics = inherit(o.Metrics, x.metrics)
	if o.Alerts != "" {
		on := true
		o.Metrics = &on
	}
}

// inherit returns pin, or a pin holding def when pin is nil.
func inherit(pin *bool, def bool) *bool {
	if pin == nil {
		return &def
	}
	return pin
}

func (o observe) traced() bool    { return o.Trace != nil && *o.Trace }
func (o observe) metered() bool   { return o.Metrics != nil && *o.Metrics }
func (o observe) journeyed() bool { return o.Journeys != nil && *o.Journeys }

// writeKey appends the resolved observers' cache-key tokens to b.
func (o observe) writeKey(b *strings.Builder) {
	if !o.Faults.Empty() {
		fmt.Fprintf(b, " faults=%s", o.Faults)
	}
	if o.traced() {
		b.WriteString(" trace")
	}
	if o.metered() {
		b.WriteString(" metrics")
	}
	if o.journeyed() {
		b.WriteString(" journeys")
	}
	if o.Alerts != "" {
		fmt.Fprintf(b, " alerts=%s", o.Alerts)
	}
}

// ----------------------------------------------------------------------
// Boot-prefix snapshot cache.

// bootParams canonically encodes everything that shapes a host boot: the
// scenario key minus the fields that only shape the measured wave
// (concurrency, arrival process). Scenarios agreeing on these tokens — and
// on the seed — boot byte-identical hosts and therefore share one cached
// snapshot.
func bootParams(baseline string, layout *hypervisor.Layout, spec *cluster.HostSpec, noscrub bool, o observe) string {
	var b strings.Builder
	fmt.Fprintf(&b, "b=%s", baseline)
	if layout != nil {
		fmt.Fprintf(&b, " layout=%+v", *layout)
	}
	if spec != nil {
		fmt.Fprintf(&b, " spec=%+v", *spec)
	}
	if noscrub {
		b.WriteString(" noscrub")
	}
	o.writeKey(&b)
	return b.String()
}

// boot obtains a booted host for a scenario. With snapshots enabled, the
// singleflight cache is consulted under Scope "boot": the first scenario
// needing this boot simulates it and captures a snapshot; everyone else
// (including the same scenario's verification rerun) clones the snapshot,
// skipping the boot prefix. opts must already be fully resolved; the
// restored host adopts it verbatim, so wave-shaping fields (Arrival,
// StartJitter, Audit) that are deliberately outside the boot key still
// take effect.
func (x *Exec) boot(params string, spec cluster.HostSpec, opts cluster.Options) (*cluster.Host, error) {
	if !x.snapshots {
		return cluster.NewHost(spec, opts)
	}
	v, err := x.pool.One(harness.Job{
		Key: harness.Key{Scope: "boot", Params: params, Seed: opts.Seed},
		Fn: func() (any, error) {
			h, err := cluster.NewHost(spec, opts)
			if err != nil {
				return nil, err
			}
			return cluster.CaptureSnapshot(h)
		},
		// Verify mode double-boots and byte-compares the captures.
		Fingerprint: func(v any) ([]byte, error) { return v.(*cluster.Snapshot).AppendCanonical(nil), nil },
	})
	if err != nil {
		return nil, err
	}
	h, err := cluster.RestoreSnapshot(v.(*cluster.Snapshot))
	if err != nil {
		return nil, err
	}
	// The snapshot may have been captured by a scenario differing only in
	// wave-shaping options; those never influence boot, so adopting this
	// scenario's full options keeps the measured wave faithful.
	h.Opts = opts
	return h, nil
}

// ----------------------------------------------------------------------
// Startup scenarios: one baseline at one concurrency, optional overrides.

// startupSpec identifies one startup run.
type startupSpec struct {
	Baseline string
	N        int
	// Layout overrides the per-container guest memory geometry.
	Layout *hypervisor.Layout
	// Spec overrides the whole host (VF population, memory geometry, NIC).
	Spec *cluster.HostSpec
	// DisableScrubber turns off fastiovd's background zeroing thread.
	DisableScrubber bool
	// Arrival overrides the invocation arrival process.
	Arrival *cluster.Arrival
	observe
}

func (startupSpec) scope() string { return "startup" }

func (s startupSpec) params() string {
	var b strings.Builder
	fmt.Fprintf(&b, "b=%s n=%d", s.Baseline, s.N)
	if s.Layout != nil {
		fmt.Fprintf(&b, " layout=%+v", *s.Layout)
	}
	if s.Spec != nil {
		fmt.Fprintf(&b, " spec=%+v", *s.Spec)
	}
	if s.DisableScrubber {
		b.WriteString(" noscrub")
	}
	if s.Arrival != nil {
		fmt.Fprintf(&b, " arrival=%+v", *s.Arrival)
	}
	s.writeKey(&b)
	return b.String()
}

// run executes the spec at one seed on a private simulated host (booted
// from the executor's snapshot cache when enabled). The returned result is
// sealed (samples pre-sorted).
func (s startupSpec) run(x *Exec, seed uint64) (*cluster.Result, error) {
	opts, err := cluster.OptionsFor(s.Baseline)
	if err != nil {
		return nil, err
	}
	opts.Seed = seed
	if s.Layout != nil {
		opts.Layout = *s.Layout
	}
	if s.DisableScrubber {
		opts.DisableScrubber = true
	}
	if s.Arrival != nil {
		opts.Arrival = *s.Arrival
	}
	opts.Faults = s.Faults
	opts.Trace = s.traced()
	opts.Metrics = s.metered()
	// Every harness run is audited: after measurement the surviving
	// sandboxes are stopped and the host's conservation counters diffed
	// against the boot baseline. The teardown phase runs after all
	// telemetry marks and consumes no randomness, so the rendered results
	// are unchanged — but a leak anywhere in the registry fails loudly.
	opts.Audit = true
	spec := cluster.DefaultHostSpec()
	if s.Spec != nil {
		spec = *s.Spec
	}
	h, err := x.boot(bootParams(s.Baseline, s.Layout, s.Spec, s.DisableScrubber, s.observe), spec, opts)
	if err != nil {
		return nil, err
	}
	res := h.StartupExperiment(s.N)
	if res.Err != nil {
		return nil, fmt.Errorf("%s: %w", s.Baseline, res.Err)
	}
	if !res.Leaks.Clean() {
		// Standing invariant: every run — rollbacks included — must return
		// each VF, page, IOMMU mapping, and registration it took.
		return nil, fmt.Errorf("%s: dirty leak audit:\n%s", s.Baseline, res.Leaks)
	}
	if res.Trace != nil {
		// Standing invariant on every traced run: per-container critical
		// paths must sum exactly to the recorder's end-to-end totals.
		if err := trace.VerifyCriticalPaths(res.Trace, res.Recorder, trace.DefaultBinder); err != nil {
			return nil, fmt.Errorf("%s: %w", s.Baseline, err)
		}
	}
	res.Totals.Sort()
	res.VFRelated.Sort()
	return res, nil
}

// fingerprint serializes every per-container total plus the full telemetry
// record.
func (startupSpec) fingerprint(res *cluster.Result) []byte {
	var b []byte
	for _, d := range res.Totals.Values() {
		b = fmt.Appendf(b, "total %d\n", d)
	}
	for _, d := range res.VFRelated.Values() {
		b = fmt.Appendf(b, "vf %d\n", d)
	}
	// Failure accounting and injector counters join the fingerprint only
	// for faulted runs, keeping fault-free fingerprints byte-identical to
	// their pre-fault-layer encoding.
	if res.FaultStats != nil {
		b = fmt.Appendf(b, "started %d failed %d\n", res.Started, res.Failed)
		for _, st := range res.FaultStats {
			b = fmt.Appendf(b, "fault %s occ=%d inj=%d\n", st.Site, st.Occurrences, st.Injected)
		}
	}
	// The trace digest joins the fingerprint only for traced runs, keeping
	// untraced fingerprints byte-identical to their pre-trace-layer
	// encoding. The digest covers the full event stream, so determinism
	// verification extends down to individual lock handoffs.
	if res.Trace != nil {
		b = fmt.Appendf(b, "trace events=%d fp=%016x\n", res.Trace.Len(), res.Trace.Fingerprint())
	}
	// The metrics digest joins the fingerprint only for metered runs,
	// keeping unmetered fingerprints byte-identical to their
	// pre-metrics-layer encoding. The digest covers the canonical
	// OpenMetrics and CSV exports, so determinism verification extends down
	// to every sampled value.
	if res.Metrics != nil {
		b = fmt.Appendf(b, "metrics samples=%d fp=%016x\n", res.Metrics.Samples(), res.Metrics.Fingerprint())
	}
	return res.Recorder.AppendCanonical(b)
}

// startups is a startup scenario's per-seed results.
type startups = multi[*cluster.Result]

// meanTotal is the cross-seed estimate of the average startup time.
func meanTotal(m startups) stats.Estimate {
	return m.metric(func(r *cluster.Result) time.Duration { return r.Totals.Mean() })
}

// totalPercentile is the cross-seed estimate of a startup-time percentile.
func totalPercentile(m startups, p float64) stats.Estimate {
	return m.metric(func(r *cluster.Result) time.Duration { return r.Totals.Percentile(p) })
}

// meanVFRelated is the cross-seed estimate of per-container VF-related
// stage time.
func meanVFRelated(m startups) stats.Estimate {
	return m.metric(func(r *cluster.Result) time.Duration { return r.VFRelated.Mean() })
}

// stageMean is the cross-seed estimate of one stage's per-container mean.
func stageMean(m startups, st telemetry.Stage) stats.Estimate {
	return m.metric(func(r *cluster.Result) time.Duration {
		if s := r.Recorder.ByStage()[st]; s != nil {
			return s.Mean()
		}
		return 0
	})
}

// ----------------------------------------------------------------------
// Serverless scenarios: a baseline running one SeBS app to completion.

// serverlessSpec identifies one serverless completion run.
type serverlessSpec struct {
	Baseline        string
	N               int
	App             serverless.App
	Layout          *hypervisor.Layout
	DisableScrubber bool
	observe
}

func (serverlessSpec) scope() string { return "serverless" }

func (s serverlessSpec) params() string {
	var b strings.Builder
	fmt.Fprintf(&b, "b=%s n=%d app=%s", s.Baseline, s.N, s.App.Name)
	if s.Layout != nil {
		fmt.Fprintf(&b, " layout=%+v", *s.Layout)
	}
	if s.DisableScrubber {
		b.WriteString(" noscrub")
	}
	s.writeKey(&b)
	return b.String()
}

func (s serverlessSpec) run(x *Exec, seed uint64) (*stats.Sample, error) {
	opts, err := cluster.OptionsFor(s.Baseline)
	if err != nil {
		return nil, err
	}
	opts.Seed = seed
	if s.Layout != nil {
		opts.Layout = *s.Layout
	}
	if s.DisableScrubber {
		opts.DisableScrubber = true
	}
	opts.Faults = s.Faults
	opts.Trace = s.traced()
	opts.Metrics = s.metered()
	// Harness serverless runs audit too: completed sandboxes are stopped
	// after the sample is taken and the conservation counters checked (see
	// startupSpec.run).
	opts.Audit = true
	h, err := x.boot(bootParams(s.Baseline, s.Layout, nil, s.DisableScrubber, s.observe), cluster.DefaultHostSpec(), opts)
	if err != nil {
		return nil, err
	}
	sample, err := serverlessCompletions(h, opts, s.N, s.App)
	if err != nil {
		return nil, err
	}
	if h.Tracer != nil {
		if err := trace.VerifyCriticalPaths(h.Tracer, h.Rec, trace.DefaultBinder); err != nil {
			return nil, fmt.Errorf("%s/%s: %w", s.Baseline, s.App.Name, err)
		}
	}
	sample.Sort()
	return sample, nil
}

func (serverlessSpec) fingerprint(sample *stats.Sample) []byte {
	var b []byte
	for _, d := range sample.Values() {
		b = fmt.Appendf(b, "%d\n", d)
	}
	return b
}
