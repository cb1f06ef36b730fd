package main

import (
	"fmt"
	"math"
	"time"

	"fastiov"
	"fastiov/internal/cluster"
	"fastiov/internal/experiments"
	"fastiov/internal/fault"
	"fastiov/internal/fleet"
	"fastiov/internal/serve"
	"fastiov/internal/stats"
)

// workload is one scenario of the closed loop. op builds the scenario
// through c.setup, runs it through c.run, checks the result, and returns its
// canonical bytes: everything the simulation decided, which must not change
// from op to op or, at seed 1, from the pinned digest.
type workload struct {
	name string
	op   func(c *opCtx, seed uint64) ([]byte, error)
}

var workloads = []*workload{
	{name: "burst-c200", op: burstOp},
	{name: "fleet-100x20", op: fleetOp},
	{name: "serve-incident", op: serveOp},
	{name: "paper-suite", op: suiteOp},
}

// pinnedDigests are the SHA-256 digests of each workload's canonical bytes
// at seed 1. The paper-suite digest is also the digest of results_full.txt
// restricted to the suite's experiments, wall-clock lines removed.
var pinnedDigests = map[string]string{
	"burst-c200":     "2eb1806f2aec5b94536d2e68112d8383faf986781948cc89c77cc242985707a5",
	"fleet-100x20":   "08b6db065b2deaf14ab6e00ac318e904e2ccb7b214001e34ca5a39dee60a26c1",
	"serve-incident": "5ed1e20bbec20204c521bf27cb0f2dab6df3b4797d34ac2772aaca91523b9e62",
	"paper-suite":    "5ce8d1312e8c8004f17dfb07e64b09ee5a2861e2f7623fe6947d3ce21ef56651",
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// burstN is the paper's headline concurrency.
const burstN = 200

// burstBaselines are the Fig. 11 pair the burst op runs, in order.
var burstBaselines = []string{cluster.BaselineVanilla, cluster.BaselineFastIOV}

// burstOp boots one default host per baseline and starts a 200-container
// burst on it.
func burstOp(c *opCtx, seed uint64) ([]byte, error) {
	var canon []byte
	for _, b := range burstBaselines {
		res, err := startup(c, b, seed, nil)
		if err != nil {
			return nil, err
		}
		canon = fmt.Appendf(canon, "host %s\n", b)
		canon = res.Recorder.AppendCanonical(canon)
	}
	return canon, nil
}

// startup boots a default host for baseline, with observe (when non-nil)
// switching observers on, and starts an audited burst of burstN containers.
func startup(c *opCtx, baseline string, seed uint64, observe func(*cluster.Options)) (*cluster.Result, error) {
	opts, err := cluster.OptionsFor(baseline)
	if err != nil {
		return nil, err
	}
	opts.Seed = seed
	opts.Audit = true
	if observe != nil {
		observe(&opts)
	}
	var h *cluster.Host
	if err := c.setup("cluster.NewHost/"+baseline, func() (err error) {
		h, err = cluster.NewHost(cluster.DefaultHostSpec(), opts)
		return err
	}); err != nil {
		return nil, err
	}
	var res *cluster.Result
	_ = c.run("cluster.Host.StartupExperiment/"+baseline, func() error {
		res = h.StartupExperiment(burstN)
		return res.Err
	})
	switch {
	case res.Err != nil:
		return nil, fmt.Errorf("%s: %w", baseline, res.Err)
	case res.Started != burstN || res.Failed != 0:
		return nil, fmt.Errorf("%s: %d started, %d failed; want %d and 0", baseline, res.Started, res.Failed, burstN)
	case res.Leaks == nil || !res.Leaks.Clean():
		return nil, fmt.Errorf("%s: dirty leak audit: %v", baseline, res.Leaks)
	}
	return res, nil
}

// paperStartupCutPct is the paper's FastIOV cut in average startup time
// versus vanilla at c=200 (Fig. 11).
const paperStartupCutPct = 65.7

// paperGap runs the burst pair once and returns the distance, in
// percentage points, between the simulated and the paper's FastIOV cut in
// average startup time. It is simulated time, so it moves only when the
// simulation's behaviour does.
func (r *runner) paperGap(seed uint64) float64 {
	c := r.newOp("paper-gap")
	var mean [2]time.Duration
	var err error
	for i, b := range burstBaselines {
		var res *cluster.Result
		if res, err = startup(c, b, seed, nil); err != nil {
			break
		}
		mean[i] = res.Totals.Mean()
	}
	r.endOp(c)
	r.record("paper-gap", err)
	return math.Abs(100*stats.ReductionRatio(mean[0], mean[1]) - paperStartupCutPct)
}

// fleetConfig is BenchmarkFleet100x20's scenario.
func fleetConfig(seed uint64) fleet.Config {
	return fleet.Config{
		Baseline:  cluster.BaselineFastIOV,
		Policy:    fleet.PolicyLeastLoaded,
		HostSpecs: fleet.HeterogeneousSpecs(100),
		Requests:  100 * 20,
		Seed:      seed,
		Audit:     true,
	}
}

// fleetOp boots 100 heterogeneous hosts into one kernel and places 2000
// container starts across them.
func fleetOp(c *opCtx, seed uint64) ([]byte, error) {
	cfg := fleetConfig(seed)
	var f *fleet.Fleet
	if err := c.setup("fleet.New", func() (err error) {
		f, err = fleet.New(cfg)
		return err
	}); err != nil {
		return nil, err
	}
	var res *fleet.Result
	_ = c.run("fleet.Fleet.Run", func() error {
		res = f.Run()
		return res.Err
	})
	switch {
	case res.Err != nil:
		return nil, res.Err
	case res.Failed != 0 || res.Started+res.Rejected != cfg.Requests:
		return nil, fmt.Errorf("fleet: %d started, %d rejected, %d failed of %d requests", res.Started, res.Rejected, res.Failed, cfg.Requests)
	case res.Leaks == nil || !res.Leaks.Clean() || !res.CleanPerHost():
		return nil, fmt.Errorf("fleet: dirty leak audit: %v", res.Leaks)
	}
	return res.Fingerprint(), nil
}

// The serving incident: slowatch's host-crash plan and serving's flash
// crowd, in one window.
const (
	incidentCrashPlan = "host-crash@600ms:host=0,mtbf=2s;host-recover=300ms"
	incidentFlash     = ";flash@3s:x=6,for=2s"
)

// serveConfig is the serve-incident scenario with every observer off.
func serveConfig(seed uint64) (serve.Config, error) {
	plan, err := fault.ParsePlan(incidentCrashPlan)
	return serve.Config{
		Baseline: cluster.BaselineFastIOV,
		Policy:   serve.PolicySLOAware,
		Hosts:    4,
		Workload: serve.DefaultWorkloadSpec + incidentFlash,
		Rate:     64,
		Window:   10 * time.Second,
		Lifetime: 2 * time.Second,
		Seed:     seed,
		Faults:   plan,
		Audit:    true,
	}, err
}

// allObservers switches on every serving observer: metrics, journeys, and
// the slowatch alert rules.
func allObservers(cfg *serve.Config) {
	cfg.Metrics = true
	cfg.Journeys = true
	cfg.AlertSpec = experiments.DefaultSlowatchRules
}

func serveOp(c *opCtx, seed uint64) ([]byte, error) {
	res, err := serveRun(c, seed, allObservers)
	if err != nil {
		return nil, err
	}
	return res.Fingerprint(), nil
}

// serveRun builds the incident scenario, with observe (when non-nil)
// switching observers on, serves its window, and checks request
// conservation and the leak audit, LostToCrash ledger included.
func serveRun(c *opCtx, seed uint64, observe func(*serve.Config)) (*serve.Result, error) {
	cfg, err := serveConfig(seed)
	if err != nil {
		return nil, err
	}
	if observe != nil {
		observe(&cfg)
	}
	var s *serve.Server
	if err := c.setup("serve.New", func() (err error) {
		s, err = serve.New(cfg)
		return err
	}); err != nil {
		return nil, err
	}
	var res *serve.Result
	_ = c.run("serve.Server.Run", func() error {
		res = s.Run()
		return res.Err
	})
	if res.Err != nil {
		return nil, res.Err
	}
	return res, checkServe(res)
}

// checkServe checks the serving plane's conservation identities.
func checkServe(r *serve.Result) error {
	var arrived, admitted, shed, completed int
	for _, t := range r.Tenants {
		arrived += t.Arrived
		admitted += t.Admitted
		shed += t.Shed
		completed += t.Completed
	}
	switch {
	case r.Fleet.HostCrashes == 0:
		return fmt.Errorf("serve: the host-crash incident never fired")
	case r.Arrived != r.Admitted+r.Shed():
		return fmt.Errorf("serve: arrived %d != admitted %d + shed %d", r.Arrived, r.Admitted, r.Shed())
	case r.Admitted != r.Completed+r.Failed:
		return fmt.Errorf("serve: admitted %d != completed %d + failed %d", r.Admitted, r.Completed, r.Failed)
	case r.Rerouted+r.CrashGiveups != r.CrashLost:
		return fmt.Errorf("serve: rerouted %d + gave up %d != crash-lost %d", r.Rerouted, r.CrashGiveups, r.CrashLost)
	case arrived != r.Arrived || admitted != r.Admitted || shed != r.Shed() || completed != r.Completed:
		return fmt.Errorf("serve: tenant tallies (%d,%d,%d,%d) disagree with totals (%d,%d,%d,%d)",
			arrived, admitted, shed, completed, r.Arrived, r.Admitted, r.Shed(), r.Completed)
	case r.Fleet.Leaks == nil || !r.Fleet.Leaks.Clean() || !r.Fleet.CleanPerHost():
		return fmt.Errorf("serve: dirty leak audit: %v", r.Fleet.Leaks)
	}
	return nil
}

// suiteExcluded are the registry experiments the suite op skips: the
// fleet-100x20 and serve-incident workloads cover their layers, and with
// them one op would take about 20 s.
var suiteExcluded = map[string]bool{"fleet": true, "serving": true, "availability": true, "slowatch": true}

// suiteIDs lists the experiments the suite op runs, in registry order.
var suiteIDs = func() []string {
	var ids []string
	for _, e := range fastiov.Experiments() {
		if !suiteExcluded[e.ID] {
			ids = append(ids, e.ID)
		}
	}
	return ids
}()

func suiteOp(c *opCtx, seed uint64) ([]byte, error) {
	canon, _, err := runSuite(c, seed)
	return canon, err
}

// runSuite builds a fresh serial suite and runs every suite experiment at
// its paper defaults. The canonical bytes are the rendered reports, which
// carry no wall-clock lines.
func runSuite(c *opCtx, seed uint64) ([]byte, experiments.CacheStats, error) {
	var s *fastiov.Suite
	_ = c.setup("fastiov.NewSuite", func() error {
		s = fastiov.NewSuite(fastiov.RunConfig{Workers: 1, Seeds: []uint64{seed}})
		return nil
	})
	var canon []byte
	for _, id := range suiteIDs {
		var rep *fastiov.Report
		if err := c.run("fastiov.Suite.Run/"+id, func() (err error) {
			rep, err = s.Run(id, 0)
			return err
		}); err != nil {
			return nil, experiments.CacheStats{}, fmt.Errorf("%s: %w", id, err)
		}
		canon = append(canon, rep.String()...)
	}
	return canon, s.CacheStats(), nil
}
