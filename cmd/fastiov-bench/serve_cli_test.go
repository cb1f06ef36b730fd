package main

import (
	"bytes"
	"strings"
	"testing"
)

// The serving goldens pin the admission-control surface end to end: the
// policy × baseline table (arrivals, shed rate, goodput, sojourn
// percentiles including p99.9, Jain fairness) at one pinned offered load,
// plus the flash-crowd rows and headline notes. Any unintended change to
// the arrival process, admission policies, fleet dispatch, or rendering
// shows up as a byte diff.
func TestGoldenServeText(t *testing.T) {
	golden(t, "serve_h2_r24.txt", []string{"-experiment", "serving", "-hosts", "2", "-rate", "24"})
}

func TestGoldenServeCSV(t *testing.T) {
	golden(t, "serve_h2_r24.csv", []string{"-experiment", "serving", "-hosts", "2", "-rate", "24", "-csv"})
}

// The per-policy summary restricts the sweep to one admission policy via
// -policy; the golden pins that with -experiment serving the shared flag
// reaches the admission layer, not fleet placement (only slo-aware rows).
func TestGoldenServePolicyText(t *testing.T) {
	golden(t, "serve_h2_r24_slo.txt", []string{"-experiment", "serving", "-hosts", "2", "-rate", "24", "-policy", "slo-aware"})
}

// TestBadServePolicyExits1 checks -policy validation under -experiment
// serving: an unknown admission policy fails the experiment with a
// diagnosis naming the bad value and the valid set.
func TestBadServePolicyExits1(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-experiment", "serving", "-hosts", "2", "-rate", "16", "-policy", "bogus"}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit code = %d, want 1, stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), `unknown admission policy "bogus"`) {
		t.Errorf("stderr missing policy diagnosis:\n%s", stderr.String())
	}
}

// TestBadTenantsSpecExits2 checks -tenants pre-validation: a malformed
// workload spec is a usage error diagnosed before any experiment runs.
func TestBadTenantsSpecExits2(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-experiment", "serving", "-tenants", "api:rate=oops"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code = %d, want 2, stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "-tenants") {
		t.Errorf("stderr missing -tenants diagnosis:\n%s", stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("experiment ran despite bad -tenants:\n%s", stdout.String())
	}
}

// TestServeVerifyDeterminismCLI double-runs every serving simulation and
// the whole experiment parallel+serial through the public flag, failing on
// any byte-level divergence in admission decisions, sojourns, per-tenant
// tallies, or the fleet fingerprints beneath.
func TestServeVerifyDeterminismCLI(t *testing.T) {
	var stdout, stderr bytes.Buffer
	argv := []string{"-experiment", "serving", "-hosts", "2", "-n", "16", "-seeds", "2", "-verify-determinism"}
	if code := run(argv, &stdout, &stderr); code != 0 {
		t.Fatalf("run(%v) = %d, stderr:\n%s", argv, code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "serving") {
		t.Errorf("serving table did not render:\n%s", stdout.String())
	}
}

// TestServeRateFlagChangesOutput checks -rate reaches the arrival process:
// the same sweep at different offered loads renders differently.
func TestServeRateFlagChangesOutput(t *testing.T) {
	var low, high, errBuf bytes.Buffer
	if code := run([]string{"-experiment", "serving", "-hosts", "2", "-rate", "16"}, &low, &errBuf); code != 0 {
		t.Fatalf("rate=16: exit %d, stderr: %s", code, errBuf.String())
	}
	if code := run([]string{"-experiment", "serving", "-hosts", "2", "-rate", "32"}, &high, &errBuf); code != 0 {
		t.Fatalf("rate=32: exit %d, stderr: %s", code, errBuf.String())
	}
	if stripTimes(low.String()) == stripTimes(high.String()) {
		t.Error("-rate 16 and -rate 32 rendered identically")
	}
}

// TestServeTenantsFlagChangesOutput checks -tenants reaches the workload:
// a custom tenant mix renders differently from the default, and the flash
// rows (default-workload only) disappear.
func TestServeTenantsFlagChangesOutput(t *testing.T) {
	var def, custom, errBuf bytes.Buffer
	if code := run([]string{"-experiment", "serving", "-hosts", "2", "-rate", "24"}, &def, &errBuf); code != 0 {
		t.Fatalf("default workload: exit %d, stderr: %s", code, errBuf.String())
	}
	if code := run([]string{"-experiment", "serving", "-hosts", "2", "-rate", "24", "-tenants", "solo:rate=10"}, &custom, &errBuf); code != 0 {
		t.Fatalf("custom workload: exit %d, stderr: %s", code, errBuf.String())
	}
	if stripTimes(def.String()) == stripTimes(custom.String()) {
		t.Error("custom -tenants rendered identically to the default mix")
	}
	if strings.Contains(custom.String(), "+flash") {
		t.Errorf("flash rows rendered under a custom -tenants spec:\n%s", custom.String())
	}
}
