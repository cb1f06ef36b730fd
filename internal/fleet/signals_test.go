package fleet

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"fastiov/internal/cluster"
	"fastiov/internal/hostmem"
	"fastiov/internal/sim"
	"fastiov/internal/vfio"
)

// probeOracle is the test oracle for the host signals the sim primitives
// keep themselves (sim.Resource's busy integral, sim.QueueStat). It is a
// kernel probe that rebuilds them from the event stream: a resource's busy
// integral from its acquire/release events, and a lock queue's depth and
// peak from every block on a lock whose name starts with the queue's
// prefix, minus every contended (Waker != nil) acquire — the FIFO handoff
// that dequeues a waiter. The kernel emits nothing during abort unwinds,
// so the oracle never sees them. After every event, check compares the
// live state against it.
type probeOracle struct {
	res    map[string]*oracleRes
	queues map[string]*oracleQueue
	check  func(at time.Duration, ev sim.ProbeEvent) error
	err    error // first mismatch
}

type oracleRes struct {
	inUse, busy int64
	last        time.Duration
}

type oracleQueue struct{ depth, peak int }

func newProbeOracle(resources, prefixes []string) *probeOracle {
	o := &probeOracle{res: map[string]*oracleRes{}, queues: map[string]*oracleQueue{}}
	for _, name := range resources {
		o.res[name] = &oracleRes{}
	}
	for _, p := range prefixes {
		o.queues[p] = &oracleQueue{}
	}
	return o
}

// update advances the integral to at, then applies the in-use delta.
func (w *oracleRes) update(at time.Duration, delta int64) {
	w.busy += w.inUse * int64(at-w.last)
	w.last = at
	w.inUse += delta
}

func (w *oracleRes) busyAt(at time.Duration) time.Duration {
	return time.Duration(w.busy + w.inUse*int64(at-w.last))
}

func lockClass(c sim.WaitClass) bool {
	return c == sim.WaitMutex || c == sim.WaitRWRead || c == sim.WaitRWWrite
}

func (o *probeOracle) observe(at time.Duration, ev sim.ProbeEvent) {
	switch {
	case ev.Class == sim.WaitResource && (ev.Kind == sim.ProbeAcquire || ev.Kind == sim.ProbeRelease):
		if w := o.res[ev.Obj]; w != nil {
			if ev.Kind == sim.ProbeAcquire {
				w.update(at, ev.N)
			} else {
				w.update(at, -ev.N)
			}
		}
	case lockClass(ev.Class) && ev.Kind == sim.ProbeBlock:
		for p, q := range o.queues {
			if strings.HasPrefix(ev.Obj, p) {
				q.depth++
				q.peak = max(q.peak, q.depth)
			}
		}
	case lockClass(ev.Class) && ev.Kind == sim.ProbeAcquire && ev.Waker != nil:
		for p, q := range o.queues {
			if strings.HasPrefix(ev.Obj, p) {
				q.depth--
			}
		}
	}
	if o.err == nil {
		if err := o.check(at, ev); err != nil {
			o.err = fmt.Errorf("after %s %s %q by %s at %v: %w", ev.Kind, ev.Class, ev.Obj, ev.Proc.Name(), at, err)
		}
	}
}

// crash replays a host crash at: the dead holders stop charging the
// integral, and killed waiters (never handed the lock) leave the queue.
func (o *probeOracle) crash(at time.Duration, resource, prefix string) {
	w := o.res[resource]
	w.update(at, 0)
	w.inUse = 0
	o.queues[prefix].depth = 0
}

// signalsMatch compares a live busy integral and waiter tally with the
// oracle's.
func signalsMatch(busy time.Duration, qs *sim.QueueStat, w *oracleRes, q *oracleQueue) error {
	if busy != time.Duration(w.busy) || qs.Depth != q.depth || qs.Peak != q.peak {
		return fmt.Errorf("busy/depth/peak = %v/%d/%d, oracle %v/%d/%d",
			busy, qs.Depth, qs.Peak, time.Duration(w.busy), q.depth, q.peak)
	}
	return nil
}

// TestSignalsMatchProbeOracleOnWave runs a metered c=30 startup wave per
// baseline under the oracle: the membw busy integral and the devset waiter
// tally must match it after every event, and so must every sampled value
// (a sample is taken right before each of the sampler's sleeps) and the
// sealed finals.
func TestSignalsMatchProbeOracleOnWave(t *testing.T) {
	for _, b := range []string{cluster.BaselineVanilla, cluster.BaselineFastIOV} {
		t.Run(b, func(t *testing.T) {
			opts, err := cluster.OptionsFor(b)
			if err != nil {
				t.Fatal(err)
			}
			opts.Seed = 3
			opts.Metrics = true
			h, err := cluster.NewHost(cluster.DefaultHostSpec(), opts)
			if err != nil {
				t.Fatal(err)
			}
			o := newProbeOracle([]string{hostmem.MemBWName}, []string{vfio.DevsetLockPrefix})
			w, q := o.res[hostmem.MemBWName], o.queues[vfio.DevsetLockPrefix]
			var samples [][3]float64
			o.check = func(_ time.Duration, ev sim.ProbeEvent) error {
				if ev.Kind == sim.ProbeBlock && ev.Proc.Name() == "metrics-sampler" {
					samples = append(samples, [3]float64{time.Duration(w.busy).Seconds(), float64(q.depth), float64(q.peak)})
				}
				return signalsMatch(h.Mem.Bandwidth().Busy(), &h.VFIO.Waiters, w, q)
			}
			h.K.SetProbe(o.observe)
			res := h.StartupExperiment(30)
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			if o.err != nil {
				t.Fatal(o.err)
			}
			reg := res.Metrics
			busy := reg.Series(cluster.MetricMembwBusy)
			depth := reg.Series(cluster.MetricDevsetQueueDepth)
			peak := reg.Series(cluster.MetricDevsetQueuePeak)
			if len(samples) != len(busy) {
				t.Fatalf("oracle saw %d sampler sleeps, registry has %d samples", len(samples), len(busy))
			}
			for i, s := range samples {
				if got := [3]float64{busy[i], depth[i], peak[i]}; got != s {
					t.Fatalf("sample %d: busy/depth/peak = %v, oracle %v", i, got, s)
				}
			}
			if got, want := reg.BusyIntegral(cluster.MetricMembwBusy), w.busyAt(reg.End()); got != want {
				t.Errorf("sealed busy integral = %v, oracle %v", got, want)
			}
			if got := reg.Final(cluster.MetricDevsetQueuePeak); got != float64(q.peak) {
				t.Errorf("sealed queue peak = %v, oracle %d", got, q.peak)
			}
			if b == cluster.BaselineVanilla && q.peak == 0 {
				t.Error("vanilla wave never queued on a devset lock: the comparison is vacuous")
			}
		})
	}
}

// TestSignalsMatchProbeOracleOnCrashingFleet runs a fleet through host
// crashes and recoveries per baseline under the oracle: every host slot's
// signals must match it after every event, and so must every placement's
// view of the chosen host (queue depth, membw busy) and the per-host
// QueuePeaks and MembwBusy results. A crash is replayed where the crashing
// proc spawns the recovery proc, right after the kill sweep and the signal
// retirement. The load (16 starts per host within 1s) leaves fastiov's
// scrubbers zeroing when the run quiesces, so the abort unwind releases
// membw the oracle never sees.
func TestSignalsMatchProbeOracleOnCrashingFleet(t *testing.T) {
	plan := "host-crash@400ms:host=1;host-crash@700ms:host=2;host-recover=250ms"
	for _, b := range []string{cluster.BaselineVanilla, cluster.BaselineFastIOV} {
		t.Run(b, func(t *testing.T) {
			cfg := hostCrashCfg(b, PolicyVFAware, 5, mustPlan(t, plan))
			cfg.Requests = 64
			cfg.StartJitter = time.Second
			var resources, prefixes []string
			for i := range cfg.HostSpecs {
				resources = append(resources, Scope(i)+hostmem.MemBWName)
				prefixes = append(prefixes, Scope(i)+vfio.DevsetLockPrefix)
			}
			o := newProbeOracle(resources, prefixes)
			places := 0
			cfg.OnPlace = func(at time.Duration, id int, st HostState, _ float64, _ bool) {
				w, q := o.res[resources[st.Index]], o.queues[prefixes[st.Index]]
				if st.MembwBusy != time.Duration(w.busy) || st.QueueDepth != q.depth {
					t.Errorf("ctr-%d placed on host %d at %v: busy/depth = %v/%d, oracle %v/%d",
						id, st.Index, at, st.MembwBusy, st.QueueDepth, time.Duration(w.busy), q.depth)
				}
				places++
			}
			f, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			o.check = func(at time.Duration, ev sim.ProbeEvent) error {
				var hi int
				if ev.Kind == sim.ProbeSpawn {
					if _, err := fmt.Sscanf(ev.Proc.Name(), "fleet-recover-h%d-", &hi); err == nil {
						o.crash(at, resources[hi], prefixes[hi])
					}
				}
				for i := range f.Hosts {
					if err := signalsMatch(f.membwBusy(i), f.queues[i], o.res[resources[i]], o.queues[prefixes[i]]); err != nil {
						return fmt.Errorf("host %d: %w", i, err)
					}
				}
				return nil
			}
			f.K.SetProbe(o.observe)
			res := f.Run()
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			if o.err != nil {
				t.Fatal(o.err)
			}
			if res.HostCrashes != 2 || len(res.Recoveries) != 2 {
				t.Fatalf("crashes/recoveries = %d/%d, want 2/2", res.HostCrashes, len(res.Recoveries))
			}
			if places == 0 {
				t.Fatal("no placement observed")
			}
			for i := range f.Hosts {
				w, q := o.res[resources[i]], o.queues[prefixes[i]]
				if res.MembwBusy[i] != time.Duration(w.busy) || res.QueuePeaks[i] != q.peak {
					t.Errorf("host %d: membw/qpeak = %v/%d, oracle %v/%d",
						i, res.MembwBusy[i], res.QueuePeaks[i], time.Duration(w.busy), q.peak)
				}
			}
			if b == cluster.BaselineVanilla && res.MaxQueuePeak() == 0 {
				t.Error("vanilla fleet never queued on a devset lock: the comparison is vacuous")
			}
		})
	}
}

// TestOnlyTracingInstallsAProbe checks the fleet reads its signals from
// sim state: an unobserved or merely metered fleet leaves the kernel probe
// unset, so no emission site ever fires; only tracing installs one.
func TestOnlyTracingInstallsAProbe(t *testing.T) {
	for _, tc := range []struct {
		name           string
		trace, metrics bool
	}{{"plain", false, false}, {"metrics", false, true}, {"trace", true, false}} {
		cfg := smallCfg(cluster.BaselineVanilla, PolicyVFAware, 1)
		cfg.Trace, cfg.Metrics = tc.trace, tc.metrics
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// The probe slot is unexported; reflection reads its nil-ness only.
		if probed := !reflect.ValueOf(f.K).Elem().FieldByName("probe").IsNil(); probed != tc.trace {
			t.Errorf("%s fleet: probe installed = %v, want %v", tc.name, probed, tc.trace)
		}
	}
}
