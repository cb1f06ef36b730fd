package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The slowatch goldens pin the alerting surface end to end: the
// per-incident detection-latency table (rule firing/resolve instants per
// scenario × baseline × policy) and the page-asymmetry headline note. Any
// unintended change to the metrics registry, burn-rate evaluation, journey
// threading, or crash scheduling shows up as a byte diff.
func TestGoldenSlowatchText(t *testing.T) {
	golden(t, "slowatch_n8.txt", []string{"-experiment", "slowatch", "-n", "8"})
}

func TestGoldenSlowatchCSV(t *testing.T) {
	golden(t, "slowatch_n8.csv", []string{"-experiment", "slowatch", "-n", "8", "-csv"})
}

// journeyExports runs the standalone journey-export mode once and returns
// the three artifacts (Perfetto JSON, JSONL span log, alert timeline) cut
// from that single run.
func journeyExports(t *testing.T, extra ...string) (chrome, spans, alerts []byte) {
	t.Helper()
	dir := t.TempDir()
	jt := filepath.Join(dir, "journey.json")
	jl := filepath.Join(dir, "journey.jsonl")
	al := filepath.Join(dir, "alerts.txt")
	argv := append([]string{"-journey-trace", jt, "-journey-log", jl, "-alerts", al}, extra...)
	var stdout, stderr bytes.Buffer
	if code := run(argv, &stdout, &stderr); code != 0 {
		t.Fatalf("run(%v) = %d, stderr:\n%s", argv, code, stderr.String())
	}
	for _, want := range []string{"Perfetto journey track group", "canonical JSONL span log", "alert timeline"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("stdout missing %q:\n%s", want, stdout.String())
		}
	}
	read := func(path string) []byte {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	return read(jt), read(jl), read(al)
}

// TestGoldenJourneyExports pins all three journey artifacts of one small
// crash-scenario run byte-for-byte: the Perfetto track group (span names,
// timestamps, track layout), the canonical JSONL span log (every attribute
// of every span), and the alert timeline (rule transitions). The run is a
// pure function of (baseline, policy, hosts, rate, fault plan, seed).
func TestGoldenJourneyExports(t *testing.T) {
	chrome, spans, alerts := journeyExports(t,
		"-hosts", "2", "-rate", "6",
		"-faults", "host-crash@600ms:host=0;host-recover=300ms")
	goldenBytes(t, "journey_h2_r6.json", chrome)
	goldenBytes(t, "journey_h2_r6.jsonl", spans)
	goldenBytes(t, "journey_h2_r6_alerts.txt", alerts)

	// The Perfetto artifact must be valid trace-event JSON with the journey
	// process present.
	var file struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome, &file); err != nil {
		t.Fatalf("journey export is not valid JSON: %v", err)
	}
	var sawRequest bool
	for _, ev := range file.TraceEvents {
		if ev.Name == "request" && ev.Ph == "X" {
			sawRequest = true
		}
	}
	if !sawRequest {
		t.Error("journey trace contains no request spans")
	}
	// Every span log line is one JSON object with the canonical keys.
	for i, line := range strings.Split(strings.TrimSpace(string(spans)), "\n") {
		var span map[string]any
		if err := json.Unmarshal([]byte(line), &span); err != nil {
			t.Fatalf("span log line %d is not JSON: %v", i+1, err)
		}
		for _, key := range []string{"trace", "span", "name", "start"} {
			if _, ok := span[key]; !ok {
				t.Fatalf("span log line %d missing %q: %s", i+1, key, line)
			}
		}
	}
	// The crash plan must surface in the alert timeline: the crash-seen
	// ticket fires on every baseline.
	if !strings.Contains(string(alerts), "crash-seen") || !strings.Contains(string(alerts), "firing") {
		t.Errorf("alert timeline missing the crash-seen page:\n%s", alerts)
	}
}

// TestJourneyExportsRepeatable re-exports at the same seed and demands
// byte-identical artifacts — the CLI-level determinism check for the whole
// journey path.
func TestJourneyExportsRepeatable(t *testing.T) {
	args := []string{"-hosts", "2", "-rate", "6",
		"-faults", "host-crash@600ms:host=0;host-recover=300ms"}
	c1, s1, a1 := journeyExports(t, args...)
	c2, s2, a2 := journeyExports(t, args...)
	if !bytes.Equal(c1, c2) || !bytes.Equal(s1, s2) || !bytes.Equal(a1, a2) {
		t.Error("two journey exports at the same seed differ")
	}
}

// TestBadAlertRulesExits2 checks -alert-rules pre-validation: a malformed
// rule spec is a usage error diagnosed before any simulation runs.
func TestBadAlertRulesExits2(t *testing.T) {
	var stdout, stderr bytes.Buffer
	argv := []string{"-alerts", filepath.Join(t.TempDir(), "a.txt"), "-alert-rules", "alert a: mean(x) > 1"}
	if code := run(argv, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code = %d, want 2, stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "-alert-rules") {
		t.Errorf("stderr missing -alert-rules diagnosis:\n%s", stderr.String())
	}
}

// TestSlowatchVerifyDeterminismCLI double-runs the full alerting study —
// journeys and the alert engine attached to every serving simulation —
// through the public flag, failing on any byte-level divergence.
func TestSlowatchVerifyDeterminismCLI(t *testing.T) {
	var stdout, stderr bytes.Buffer
	argv := []string{"-experiment", "slowatch", "-n", "8", "-seeds", "2", "-verify-determinism"}
	if code := run(argv, &stdout, &stderr); code != 0 {
		t.Fatalf("run(%v) = %d, stderr:\n%s", argv, code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "slowatch") {
		t.Errorf("slowatch table did not render:\n%s", stdout.String())
	}
}
