package main

import (
	"encoding/json"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestPerturbedDigestFailsOp checks the correctness gate: an op whose
// canonical bytes match the pinned seed-1 digest passes, and the same op
// against a perturbed digest counts as failed.
func TestPerturbedDigestFailsOp(t *testing.T) {
	w, _ := workloadByName("burst-c200")

	r := newRunner(io.Discard)
	r.do(w, 1)
	if r.attempted != 1 || r.failed != 0 {
		t.Fatalf("pinned digest: %d/%d ops failed, want 0/1", r.failed, r.attempted)
	}

	perturbed := newRunner(io.Discard)
	pin := []byte(pinnedDigests[w.name])
	pin[0] ^= 1
	perturbed.pinned = map[string]string{w.name: string(pin)}
	perturbed.do(w, 1)
	if perturbed.attempted != 1 || perturbed.failed != 1 {
		t.Fatalf("perturbed digest: %d/%d ops failed, want 1/1", perturbed.failed, perturbed.attempted)
	}
	if res := perturbed.result(nil); res.Correct {
		t.Error("a run with a failed op reports correct")
	}
}

// TestDivergentOpFails checks the other half of the gate at a seed with no
// pinned digest: an op whose bytes differ from the run's first op fails.
func TestDivergentOpFails(t *testing.T) {
	w, _ := workloadByName("burst-c200")
	r := newRunner(io.Discard)
	r.first[w.name] = digest([]byte("some other run"))
	r.do(w, 2)
	if r.failed != 1 {
		t.Fatalf("%d/%d ops failed, want 1/1", r.failed, r.attempted)
	}
}

// TestHeldOutSeed runs every workload at seed 2, which no digest pins: the
// warm-up and one timed op must both pass their checks and match each other
// bit for bit.
func TestHeldOutSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	for _, w := range workloads {
		r := newRunner(io.Discard)
		r.loop(w, 2, 0)
		if r.attempted != 2 || r.failed != 0 {
			t.Errorf("%s: %d/%d ops failed, want 0/2", w.name, r.failed, r.attempted)
		}
	}
}

// TestSuiteDigestMatchesResultsFull cross-checks the pinned paper-suite
// digest against the committed results_full.txt: the suite experiments'
// sections, wall-clock lines removed.
func TestSuiteDigestMatchesResultsFull(t *testing.T) {
	raw, err := os.ReadFile("../results_full.txt")
	if err != nil {
		t.Fatal(err)
	}
	completed := regexp.MustCompile(`^\((\S+) completed in .* wall time\)$`)
	sections := map[string]string{}
	var buf strings.Builder
	lines := strings.Split(string(raw), "\n")
	for i := 0; i < len(lines); i++ {
		if m := completed.FindStringSubmatch(lines[i]); m != nil {
			sections[m[1]] = buf.String()
			buf.Reset()
			i++ // the blank line after each section
			continue
		}
		buf.WriteString(lines[i] + "\n")
	}
	var canon []byte
	for _, id := range suiteIDs {
		s, ok := sections[id]
		if !ok {
			t.Fatalf("results_full.txt has no section for %s", id)
		}
		canon = append(canon, s...)
	}
	if got := digest(canon); got != pinnedDigests["paper-suite"] {
		t.Errorf("results_full.txt digest %s, pinned %s", got, pinnedDigests["paper-suite"])
	}
}

// TestBenchmarkJSONDeclaresMetrics checks that BENCHMARK.json names the
// workloads and metrics, with their units, that the benchmark prints.
func TestBenchmarkJSONDeclaresMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var b struct {
		Workloads []decl
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("%d workloads declared, %d defined", len(b.Workloads), len(workloads))
	}
	for _, d := range b.Workloads {
		if _, ok := workloadByName(d.Name); !ok {
			t.Errorf("declared workload %s is not defined", d.Name)
		}
	}
	same := func(kind string, declared []decl, printed map[string]string) {
		if len(declared) != len(printed) {
			t.Errorf("%s: %d metrics declared, %d printed", kind, len(declared), len(printed))
		}
		for _, d := range declared {
			if u, ok := printed[d.Name]; !ok || u != d.Unit {
				t.Errorf("%s: declared %s (%s), printed unit %q", kind, d.Name, d.Unit, u)
			}
		}
	}
	e2e := map[string]string{}
	for k, m := range endToEndMetrics([]sample{{}}, 0) {
		e2e[k] = m.Unit
	}
	same("end_to_end", b.EndToEnd, e2e)
	same("per_layer", b.PerLayer, layerMetricUnits())
}

// TestLayerOf pins the CPU attribution rules on hand-written stacks.
func TestLayerOf(t *testing.T) {
	for _, tc := range []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.mallocgc", "fastiov/internal/sim.(*Kernel).newEvent", "fastiov/internal/fastiovd.(*Module).claim"}, "sim"},
		{[]string{"fastiov/internal/fastiovd.(*Module).claim.func1", "fastiov/internal/sim.runBody"}, "fastiovd"},
		{[]string{"fastiov.(*Suite).Run", "main.runSuite"}, "fastiov"},
		{[]string{"main.digest", "main.(*runner).check"}, "bench"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.sweepone", "runtime.bgsweep"}, "gc"},
		{[]string{"runtime.casgstatus", "runtime.coroswitch_m", "runtime.mcall"}, "sim"},
		{[]string{"runtime.findRunnable", "runtime.schedule", "runtime.mcall"}, "other"},
	} {
		if got := layerOf(tc.frames); got != tc.want {
			t.Errorf("layerOf(%v) = %s, want %s", tc.frames, got, tc.want)
		}
	}
}

// TestParseTraces checks the reader of `go tool pprof -traces` output.
func TestParseTraces(t *testing.T) {
	out := `File: perfbench
Type: cpu
Duration: 1s, Total samples = 40ms ( 4.00%)
-----------+-------------------------------------------------------
      30ms   fastiov/internal/pagetab.(*Table).Get (inline)
             fastiov/internal/iommu.(*IOMMU).Map
-----------+-------------------------------------------------------
      10ms   runtime.scanobject
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
`
	got, err := parseTraces([]byte(out))
	if err != nil {
		t.Fatal(err)
	}
	if got["pagetab"] != 75 || got["gc"] != 25 || len(got) != 2 {
		t.Errorf("shares %v, want pagetab 75 and gc 25", got)
	}
	if _, err := parseTraces([]byte("File: perfbench\n")); err == nil {
		t.Error("a profile with no samples parsed")
	}
}
