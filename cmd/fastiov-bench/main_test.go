package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files from current output")

func TestSanitize(t *testing.T) {
	cases := []struct{ in, want string }{
		{"fig11", "fig11"},
		{"fig16a-d", "fig16a-d"},
		{"sec6.5", "sec6_5"},
		{"abl-busscan", "abl-busscan"},
		{"UPPER", "_____"},
		{"a/b\\c", "a_b_c"},
		{"", ""},
		{"..", "__"},
		{"id with spaces", "id_with_spaces"},
	}
	for _, c := range cases {
		if got := sanitize(c.in); got != c.want {
			t.Errorf("sanitize(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// stripTimes removes the wall-time trailer lines, which are the only
// nondeterministic part of the output at a fixed seed.
func stripTimes(s string) string {
	var keep []string
	for _, line := range strings.Split(s, "\n") {
		if strings.HasPrefix(line, "(") && strings.Contains(line, "wall time)") {
			continue
		}
		if strings.HasPrefix(line, "(suite:") {
			continue
		}
		keep = append(keep, line)
	}
	return strings.Join(keep, "\n")
}

// golden runs the CLI and compares stripped stdout against a golden file,
// rewriting it under -update.
func golden(t *testing.T, name string, argv []string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(argv, &stdout, &stderr); code != 0 {
		t.Fatalf("run(%v) = %d, stderr:\n%s", argv, code, stderr.String())
	}
	got := stripTimes(stdout.String())
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./cmd/fastiov-bench -run TestGolden -update` to create)", err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s (re-run with -update after intended changes):\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// The golden tests pin the exact rendered output of two representative
// experiments at the default seed and a small fixed concurrency: fig11
// (the headline all-baselines table plus notes) and tab1 (the stage
// breakdown), in both text and CSV form. Any unintended change to the
// simulation, statistics, or rendering shows up as a byte diff.
func TestGoldenFig11Text(t *testing.T) {
	golden(t, "fig11_n20.txt", []string{"-experiment", "fig11", "-n", "20"})
}

func TestGoldenFig11CSV(t *testing.T) {
	golden(t, "fig11_n20.csv", []string{"-experiment", "fig11", "-n", "20", "-csv"})
}

func TestGoldenTab1Text(t *testing.T) {
	golden(t, "tab1_n20.txt", []string{"-experiment", "tab1", "-n", "20"})
}

func TestGoldenTab1CSV(t *testing.T) {
	golden(t, "tab1_n20.csv", []string{"-experiment", "tab1", "-n", "20", "-csv"})
}

// The chaos goldens pin the fault-injection surface end to end: the sweep
// table (success rate, survivor latency percentiles, injection counters,
// retry telemetry) and its per-site notes at two seeds.
func TestGoldenChaosText(t *testing.T) {
	golden(t, "chaos_n20.txt", []string{"-experiment", "chaos", "-n", "20", "-seeds", "2"})
}

func TestGoldenChaosCSV(t *testing.T) {
	golden(t, "chaos_n20.csv", []string{"-experiment", "chaos", "-n", "20", "-seeds", "2", "-csv"})
}

// The contention goldens pin the lock-profiling surface: the per-baseline
// top-lock table (wait/hold totals, queue depths, top blockers) and the
// critical-path decomposition text, which must name the VFIO devset global
// mutex as vanilla's dominant blocker.
func TestGoldenContentionText(t *testing.T) {
	golden(t, "contention_n20.txt", []string{"-experiment", "contention", "-n", "20"})
}

func TestGoldenContentionCSV(t *testing.T) {
	golden(t, "contention_n20.csv", []string{"-experiment", "contention", "-n", "20", "-csv"})
}

// traceFile runs `-trace` into a temp file and returns the bytes.
func traceFile(t *testing.T, extra ...string) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.json")
	var stdout, stderr bytes.Buffer
	argv := append([]string{"-trace", path}, extra...)
	if code := run(argv, &stdout, &stderr); code != 0 {
		t.Fatalf("run(%v) = %d, stderr:\n%s", argv, code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "perfetto") {
		t.Errorf("missing Perfetto pointer in: %s", stdout.String())
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestGoldenTraceJSON pins the exported Chrome trace of a small run
// byte-for-byte: event names, timestamps, durations, and tid/pid layout are
// all pure functions of (baseline, n, seed).
func TestGoldenTraceJSON(t *testing.T) {
	got := traceFile(t, "-n", "5")
	path := filepath.Join("testdata", "trace_n5.json")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./cmd/fastiov-bench -run TestGolden -update` to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("trace JSON differs from %s (re-run with -update after intended changes)", path)
	}
}

// TestTraceExportValidJSON is the acceptance check at paper-adjacent scale:
// a 50-container export must be valid trace-event JSON with the expected
// envelope, and two exports at the same seed must be byte-identical.
func TestTraceExportValidJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("50-container export")
	}
	b1 := traceFile(t, "-n", "50")
	b2 := traceFile(t, "-n", "50")
	if !bytes.Equal(b1, b2) {
		t.Error("two -trace exports at the same seed differ")
	}
	var file struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(b1, &file); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if file.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", file.DisplayTimeUnit)
	}
	if len(file.TraceEvents) < 100 {
		t.Errorf("only %d events for a 50-container run", len(file.TraceEvents))
	}
	var sawDevsetWait bool
	for _, ev := range file.TraceEvents {
		if ev.Name == "" || ev.Ph == "" {
			t.Fatalf("event missing name/ph: %+v", ev)
		}
		if strings.Contains(ev.Name, "vfio-devset") {
			sawDevsetWait = true
		}
	}
	if !sawDevsetWait {
		t.Error("vanilla 50-container trace contains no vfio-devset wait events")
	}
}

// TestBadFaultSpecExits2 checks -faults pre-validation: a malformed plan is
// a usage error diagnosed before any experiment runs.
func TestBadFaultSpecExits2(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-experiment", "tab1", "-n", "20", "-faults", "bogus-site:p=0.1"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "unknown site") {
		t.Errorf("stderr missing grammar diagnosis:\n%s", stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("experiment ran despite bad -faults:\n%s", stdout.String())
	}
}

// TestFaultsFlagChangesOutput checks the -faults flag reaches the
// simulation: the same experiment renders differently under a plan.
func TestFaultsFlagChangesOutput(t *testing.T) {
	var clean, faulted, errBuf bytes.Buffer
	if code := run([]string{"-experiment", "tab1", "-n", "20"}, &clean, &errBuf); code != 0 {
		t.Fatalf("clean run: exit %d, stderr: %s", code, errBuf.String())
	}
	if code := run([]string{"-experiment", "tab1", "-n", "20", "-faults", "vfio-reset:p=0.2"}, &faulted, &errBuf); code != 0 {
		t.Fatalf("faulted run: exit %d, stderr: %s", code, errBuf.String())
	}
	if stripTimes(clean.String()) == stripTimes(faulted.String()) {
		t.Error("-faults vfio-reset:p=0.2 left tab1 output unchanged")
	}
}

// TestErrorAggregation checks that a failing experiment no longer aborts
// the batch: healthy ids still run and render, every bad id is reported,
// and the exit code signals failure once at the end.
func TestErrorAggregation(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-experiment", "bogus1,tab1,bogus2", "-n", "20"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	errText := stderr.String()
	for _, want := range []string{"bogus1", "bogus2", "2 of 3 experiments failed"} {
		if !strings.Contains(errText, want) {
			t.Errorf("stderr missing %q:\n%s", want, errText)
		}
	}
	if !strings.Contains(stdout.String(), "tab1") {
		t.Errorf("healthy experiment tab1 did not render:\n%s", stdout.String())
	}
}

func TestListExits0(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, stderr.String())
	}
	for _, id := range []string{"fig1", "fig11", "tab1", "bg-dataplane", "availability"} {
		if !strings.Contains(stdout.String(), id) {
			t.Errorf("-list missing %s", id)
		}
	}
}

func TestBadFlagExits2(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
}

// TestOutDirWritesCSV checks the -out side channel.
func TestOutDirWritesCSV(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-experiment", "tab1", "-n", "20", "-out", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, stderr.String())
	}
	b, err := os.ReadFile(filepath.Join(dir, "tab1.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), "Step") {
		t.Errorf("tab1.csv missing header: %s", b)
	}
}

// TestWorkersMatchSerial is the CLI-level parallel==serial identity: the
// same ids at the same seeds must render byte-identically regardless of
// worker count.
func TestWorkersMatchSerial(t *testing.T) {
	argsSerial := []string{"-experiment", "fig11,tab1", "-n", "20", "-seeds", "2", "-workers", "1"}
	argsParallel := []string{"-experiment", "fig11,tab1", "-n", "20", "-seeds", "2", "-workers", "8"}
	var out1, out2, errBuf bytes.Buffer
	if code := run(argsSerial, &out1, &errBuf); code != 0 {
		t.Fatalf("serial: exit %d, stderr: %s", code, errBuf.String())
	}
	if code := run(argsParallel, &out2, &errBuf); code != 0 {
		t.Fatalf("parallel: exit %d, stderr: %s", code, errBuf.String())
	}
	if s1, s2 := stripTimes(out1.String()), stripTimes(out2.String()); s1 != s2 {
		t.Errorf("parallel output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", s1, s2)
	}
}

// TestExportModeConflictsExit2 checks that the standalone export modes
// refuse to share an invocation with each other or with an experiment run,
// and that -baseline needs an export mode: each case is a usage error that
// names the conflicting flags and creates no file.
func TestExportModeConflictsExit2(t *testing.T) {
	for _, c := range []struct {
		argv []string
		want []string
	}{
		{[]string{"-trace", "t.json", "-metrics", "m.om", "-journey-log", "j.jsonl"}, []string{"-trace", "-metrics", "-journey-log"}},
		{[]string{"-metrics", "m.om", "-alerts", "a.txt"}, []string{"-metrics", "-alerts"}},
		{[]string{"-dashboard", "-trace", "t.json"}, []string{"-dashboard", "-trace"}},
		{[]string{"-trace", "t.json", "-experiment", "fig11"}, []string{"-experiment", "-trace"}},
		{[]string{"-experiment", "all", "-metrics-csv", "m.csv"}, []string{"-experiment", "-metrics-csv"}},
		{[]string{"-list", "-journey-trace", "j.json"}, []string{"-list", "-journey-trace"}},
		{[]string{"-baseline", "bogus", "-experiment", "tab1"}, []string{"-baseline"}},
		{[]string{"-baseline", "fastiov"}, []string{"-baseline"}},
	} {
		dir := t.TempDir()
		argv := make([]string, len(c.argv))
		for i, a := range c.argv {
			if strings.Contains(a, ".") {
				a = filepath.Join(dir, a)
			}
			argv[i] = a
		}
		var stdout, stderr bytes.Buffer
		if code := run(argv, &stdout, &stderr); code != 2 {
			t.Errorf("run(%v) = %d, want 2; stderr:\n%s", c.argv, code, stderr.String())
			continue
		}
		for _, flag := range c.want {
			if !strings.Contains(stderr.String(), flag) {
				t.Errorf("run(%v): stderr does not name %s:\n%s", c.argv, flag, stderr.String())
			}
		}
		if stdout.Len() != 0 {
			t.Errorf("run(%v) printed output:\n%s", c.argv, stdout.String())
		}
		if entries, _ := os.ReadDir(dir); len(entries) != 0 {
			t.Errorf("run(%v) created %d files", c.argv, len(entries))
		}
	}
}

// definedFlags returns the names of the flags run's FlagSet defines, read
// from its -h listing.
func definedFlags(t *testing.T) map[string]bool {
	t.Helper()
	var stdout, stderr bytes.Buffer
	run([]string{"-h"}, &stdout, &stderr)
	names := map[string]bool{}
	for _, line := range strings.Split(stderr.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "  -"); ok {
			names[strings.Fields(rest)[0]] = true
		}
	}
	if len(names) == 0 {
		t.Fatalf("no flags in -h output:\n%s", stderr.String())
	}
	return names
}

// documentedArgs returns the arguments that follow each fastiov-bench
// command word (fastiov-bench, ./cmd/fastiov-bench, /tmp/fastiov-bench or
// the race build /tmp/fastiov-bench-race) in text; a package path handed to
// go build, test or vet is not a command word. An invocation runs to the
// end of its line, after joining backslash continuations, or to an
// unquoted |, >, <, ;, &, #, ( or backtick.
func documentedArgs(text string) [][]string {
	text = strings.ReplaceAll(text, "\\\n", " ")
	var out [][]string
	for _, line := range strings.Split(text, "\n") {
		var before, args []string
		inCmd := false
		end := func() {
			if inCmd {
				out = append(out, args)
			}
			before, args, inCmd = nil, nil, false
		}
		var tok strings.Builder
		quote := rune(0)
		flush := func() {
			if tok.Len() == 0 {
				return
			}
			word := tok.String()
			tok.Reset()
			if inCmd {
				args = append(args, word)
				return
			}
			goTool := len(before) >= 2 && before[0] == "go" && before[1] != "run"
			before = append(before, word)
			if i := strings.LastIndex(word, "/"); i >= 0 {
				word = word[i+1:]
			}
			if (word == "fastiov-bench" || word == "fastiov-bench-race") && !goTool {
				inCmd = true
			}
		}
		for _, r := range line {
			switch {
			case quote != 0:
				if r == quote {
					quote = 0
				} else {
					tok.WriteRune(r)
				}
			case r == '"' || r == '\'':
				quote = r
			case r == ' ' || r == '\t':
				flush()
			case strings.ContainsRune("|><;&#`(", r):
				flush()
				end()
			default:
				tok.WriteRune(r)
			}
		}
		flush()
		end()
	}
	return out
}

// TestDocumentedFlagsExist fails on any -flag that the docs, the CI
// workflow or the verify recipe pass to fastiov-bench but run does not
// define, so a stale invocation fails here rather than for a reader.
func TestDocumentedFlagsExist(t *testing.T) {
	defined := definedFlags(t)
	for _, doc := range []string{
		"../../README.md",
		"../../EXPERIMENTS.md",
		"../../.github/workflows/ci.yml",
		"../../.claude/skills/verify/SKILL.md",
	} {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		invocations := documentedArgs(string(b))
		if len(invocations) == 0 {
			t.Errorf("%s: no fastiov-bench invocations found", doc)
		}
		for _, args := range invocations {
			for _, arg := range args {
				if len(arg) < 2 || arg[0] != '-' || arg[1] < 'a' || arg[1] > 'z' {
					continue
				}
				name, _, _ := strings.Cut(arg[1:], "=")
				if !defined[name] {
					t.Errorf("%s: fastiov-bench %s: flag -%s is not defined", doc, strings.Join(args, " "), name)
				}
			}
		}
	}
}
