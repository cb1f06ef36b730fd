package experiments

// Regression coverage for the boot-prefix snapshot cache: every scenario
// must fingerprint byte-identically with snapshot caching on and off. The
// snapshots-off executor re-simulates each boot from scratch and is the
// reference; the snapshots-on executor boots once per (boot inputs, seed)
// and clones. The spec matrix deliberately crosses the cache-key
// dimensions — baseline, tracing, metrics, faults, scrubber, arrival
// process — including pairs that share one cached boot.

import (
	"bytes"
	"testing"

	"fastiov/internal/cluster"
	"fastiov/internal/fault"
	"fastiov/internal/harness"
)

func transparencySpecs(t *testing.T) []startupSpec {
	t.Helper()
	pl, err := fault.ParsePlan("vfio-reset:p=0.2;dma-map:every=7")
	if err != nil {
		t.Fatal(err)
	}
	return []startupSpec{
		{Baseline: cluster.BaselineVanilla, N: 40},
		// Same boot inputs as above, different wave: must share the cached
		// boot yet produce its own (Poisson) arrival pattern.
		{Baseline: cluster.BaselineVanilla, N: 25,
			Arrival: &cluster.Arrival{Kind: cluster.ArrivalPoisson, RatePerSec: 200}},
		{Baseline: cluster.BaselineFastIOV, N: 40, observe: observe{Trace: true}},
		{Baseline: cluster.BaselineFastIOV, N: 30, observe: observe{Metrics: true}},
		{Baseline: cluster.BaselinePre50, N: 20, DisableScrubber: true},
		{Baseline: cluster.BaselineFastIOV, N: 30, observe: observe{Faults: pl}},
	}
}

// runFingerprints executes the specs on one executor and returns each
// primary result's canonical fingerprint.
func runFingerprints(t *testing.T, x *Exec, specs []startupSpec) [][]byte {
	t.Helper()
	results, err := runAll[*cluster.Result](x, specs)
	if err != nil {
		t.Fatal(err)
	}
	fps := make([][]byte, len(results))
	for i, m := range results {
		fps[i] = specs[i].fingerprint(m.primary())
	}
	return fps
}

// TestSnapshotCacheTransparency compares every scenario's fingerprint
// across snapshots-off (reference) and snapshots-on executors, with
// verification enabled on the snapshot path so each cached boot is also
// double-booted and byte-compared.
func TestSnapshotCacheTransparency(t *testing.T) {
	specs := transparencySpecs(t)

	ref := NewExec(2, []uint64{1, 2})
	ref.SetSnapshots(false)
	want := runFingerprints(t, ref, specs)

	snapped := NewExec(2, []uint64{1, 2})
	snapped.SetVerify(true)
	if !snapped.snapshots {
		t.Fatal("snapshot caching must be on by default")
	}
	got := runFingerprints(t, snapped, specs)

	for i := range specs {
		if !bytes.Equal(want[i], got[i]) {
			off, detail := harness.FirstDivergence(want[i], got[i])
			t.Errorf("spec %d (%s): snapshot-cached result diverges from from-scratch boot at byte %d: %s",
				i, specs[i].params(), off, detail)
		}
	}

	// The two vanilla specs differ only in wave shaping, so at two seeds the
	// snapshot run needs strictly fewer executions than jobs: boot sharing
	// must actually have happened.
	st := snapped.CacheStats()
	jobs := len(specs) * 2 // scenario jobs across both seeds
	if st.Hits == 0 {
		t.Errorf("snapshot run recorded no cache hits (runs=%d); boot sharing is not happening", st.Runs)
	}
	if st.Runs <= jobs {
		t.Logf("cache traffic: runs=%d hits=%d verified=%d (jobs=%d)", st.Runs, st.Hits, st.Verified, jobs)
	}
}

// TestSnapshotToggleRoundTrip pins the setter semantics
// Suite.VerifyDeterminism uses to boot its serial reference from scratch.
func TestSnapshotToggleRoundTrip(t *testing.T) {
	x := NewExec(1, nil)
	if !x.snapshots {
		t.Fatal("snapshots must default on")
	}
	x.SetSnapshots(false)
	if x.snapshots {
		t.Fatal("SetSnapshots(false) did not stick")
	}
}
