package main

import (
	"bytes"
	"strings"
	"testing"
)

// The availability goldens pin the failure-domain surface end to end: the
// policy × baseline table at one pinned MTBF/MTTR cell (crashes absorbed,
// recovery time, lost/rerouted/gave-up tallies, goodput, sojourn
// percentiles) plus the recovery-cliff headline notes. Any unintended
// change to the crash injector, the host kill sets, the LostToCrash
// ledger, the reboot path, or the serving reroute loop shows up as a
// byte diff.
func TestGoldenAvailText(t *testing.T) {
	golden(t, "avail_n20.txt", []string{"-experiment", "availability", "-n", "20"})
}

func TestGoldenAvailCSV(t *testing.T) {
	golden(t, "avail_n20.csv", []string{"-experiment", "availability", "-n", "20", "-csv"})
}

// TestAvailMTBFFlagChangesOutput checks -mtbf reaches the crash plan: a
// pinned single-cell sweep renders differently from the default cell.
func TestAvailMTBFFlagChangesOutput(t *testing.T) {
	var def, pinned, errBuf bytes.Buffer
	if code := run([]string{"-experiment", "availability", "-n", "20"}, &def, &errBuf); code != 0 {
		t.Fatalf("default cell: exit %d, stderr: %s", code, errBuf.String())
	}
	if code := run([]string{"-experiment", "availability", "-n", "20", "-mtbf", "1s"}, &pinned, &errBuf); code != 0 {
		t.Fatalf("-mtbf 1s: exit %d, stderr: %s", code, errBuf.String())
	}
	if stripTimes(def.String()) == stripTimes(pinned.String()) {
		t.Error("-mtbf 1s rendered identically to the default cell")
	}
	if !strings.Contains(pinned.String(), "1s") {
		t.Errorf("pinned MTBF missing from table:\n%s", pinned.String())
	}
}

// TestAvailVerifyDeterminismCLI double-runs every crash-and-recover
// simulation and the whole experiment parallel+serial through the public
// flag, failing on any byte-level divergence in kill timing, ledger
// snapshots, reboot costs, or reroute decisions.
func TestAvailVerifyDeterminismCLI(t *testing.T) {
	var stdout, stderr bytes.Buffer
	argv := []string{"-experiment", "availability", "-n", "20", "-verify-determinism"}
	if code := run(argv, &stdout, &stderr); code != 0 {
		t.Fatalf("run(%v) = %d, stderr:\n%s", argv, code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "availability") {
		t.Errorf("availability table did not render:\n%s", stdout.String())
	}
}
