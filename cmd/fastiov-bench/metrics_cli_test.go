// CLI tests for the metrics exporters (-metrics, -metrics-csv, -dashboard),
// the saturation experiment, and the -json machine-readable artifact.
package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// exportFile runs the CLI with argv, expects success, and returns the bytes
// written to path.
func exportFile(t *testing.T, path string, argv []string) []byte {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(argv, &stdout, &stderr); code != 0 {
		t.Fatalf("run(%v) = %d, stderr:\n%s", argv, code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "wrote "+path) {
		t.Errorf("missing 'wrote %s' confirmation in: %s", path, stdout.String())
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// goldenBytes compares got against a golden file, rewriting under -update.
func goldenBytes(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
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
		t.Errorf("output differs from %s (re-run with -update after intended changes):\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// The saturation goldens pin the host-saturation experiment end to end:
// the per-baseline sweep table (queue peaks, membw utilization, busy
// integrals, zeroed volume), the two contrast notes, and both baselines'
// dashboards at the top concurrency.
func TestGoldenSaturationText(t *testing.T) {
	golden(t, "saturation_n30.txt", []string{"-experiment", "saturation", "-n", "30"})
}

func TestGoldenSaturationCSV(t *testing.T) {
	golden(t, "saturation_n30.csv", []string{"-experiment", "saturation", "-n", "30", "-csv"})
}

// The exporter goldens pin all three metric export formats byte-for-byte
// at a small fixed run: the OpenMetrics snapshot, the CSV time series, and
// the ASCII dashboard are pure functions of (baseline, n, seed).
func TestGoldenOpenMetricsExport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.om")
	goldenBytes(t, "metrics_n20.om", exportFile(t, path, []string{"-metrics", path, "-n", "20"}))
}

func TestGoldenMetricsCSVExport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.csv")
	goldenBytes(t, "metrics_n20.csv", exportFile(t, path, []string{"-metrics-csv", path, "-n", "20"}))
}

func TestGoldenDashboard(t *testing.T) {
	golden(t, "dashboard_n20.txt", []string{"-dashboard", "-n", "20"})
}

// TestMetricsExportDeterminism re-exports the same run twice (all three
// formats in one invocation) and demands byte equality.
func TestMetricsExportDeterminism(t *testing.T) {
	export := func(dir string) (om, csv, dash []byte) {
		omPath := filepath.Join(dir, "m.om")
		csvPath := filepath.Join(dir, "m.csv")
		var stdout, stderr bytes.Buffer
		argv := []string{"-metrics", omPath, "-metrics-csv", csvPath, "-dashboard", "-baseline", "fastiov", "-n", "20"}
		if code := run(argv, &stdout, &stderr); code != 0 {
			t.Fatalf("run(%v) = %d, stderr:\n%s", argv, code, stderr.String())
		}
		omB, err := os.ReadFile(omPath)
		if err != nil {
			t.Fatal(err)
		}
		csvB, err := os.ReadFile(csvPath)
		if err != nil {
			t.Fatal(err)
		}
		i := strings.Index(stdout.String(), "fastiov, concurrency")
		if i < 0 {
			t.Fatalf("missing dashboard in: %s", stdout.String())
		}
		return omB, csvB, []byte(stdout.String()[i:])
	}
	om1, csv1, dash1 := export(t.TempDir())
	om2, csv2, dash2 := export(t.TempDir())
	for _, c := range []struct {
		name string
		a, b []byte
	}{{"OpenMetrics", om1, om2}, {"CSV", csv1, csv2}, {"dashboard", dash1, dash2}} {
		if !bytes.Equal(c.a, c.b) {
			t.Errorf("%s export differs across invocations", c.name)
		}
	}
}

// TestSaturationWorkersMatchSerial extends the parallel==serial identity
// to the metered experiment: the saturation report must render
// byte-identically regardless of worker count.
func TestSaturationWorkersMatchSerial(t *testing.T) {
	var out1, out2, errBuf bytes.Buffer
	if code := run([]string{"-experiment", "saturation", "-n", "20", "-workers", "1"}, &out1, &errBuf); code != 0 {
		t.Fatalf("serial: exit %d, stderr: %s", code, errBuf.String())
	}
	if code := run([]string{"-experiment", "saturation", "-n", "20", "-workers", "8"}, &out2, &errBuf); code != 0 {
		t.Fatalf("parallel: exit %d, stderr: %s", code, errBuf.String())
	}
	if s1, s2 := stripTimes(out1.String()), stripTimes(out2.String()); s1 != s2 {
		t.Errorf("parallel saturation differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", s1, s2)
	}
}

// TestBadMetricsBaselineExits1 checks the standalone metrics mode surfaces
// an unknown baseline as a failure.
func TestBadMetricsBaselineExits1(t *testing.T) {
	var stdout, stderr bytes.Buffer
	path := filepath.Join(t.TempDir(), "m.om")
	if code := run([]string{"-metrics", path, "-baseline", "bogus"}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "bogus") {
		t.Errorf("stderr missing baseline diagnosis:\n%s", stderr.String())
	}
}

// TestBenchJSONSchema is the -json acceptance test: one invocation over
// the full registry must produce a schema-valid document with one entry
// per experiment, typed table cells aligned with the columns, and the
// cache trailer — under a parallel worker pool.
func TestBenchJSONSchema(t *testing.T) {
	if testing.Short() {
		t.Skip("full-registry run")
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	var stdout, stderr bytes.Buffer
	argv := []string{"-experiment", "all", "-n", "5", "-workers", "4", "-json", path}
	if code := run(argv, &stdout, &stderr); code != 0 {
		t.Fatalf("run(%v) = %d, stderr:\n%s", argv, code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "wrote "+path) {
		t.Errorf("missing 'wrote %s' confirmation", path)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Schema          string `json:"schema"`
		GeneratedUnixMS int64  `json:"generated_unix_ms"`
		Config          struct {
			Experiments []string `json:"experiments"`
			N           int      `json:"n"`
			Seeds       []uint64 `json:"seeds"`
			Workers     int      `json:"workers"`
		} `json:"config"`
		Results []struct {
			Experiment string             `json:"experiment"`
			Title      string             `json:"title"`
			Error      string             `json:"error"`
			Columns    []string           `json:"columns"`
			Rows       [][]map[string]any `json:"rows"`
			Text       string             `json:"text"`
			Notes      []string           `json:"notes"`
			WallMS     float64            `json:"wall_ms"`
		} `json:"results"`
		Cache struct {
			Runs int `json:"sim_runs"`
			Hits int `json:"cache_hits"`
		} `json:"cache"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("-json output is not valid JSON: %v", err)
	}
	if doc.Schema != benchSchema {
		t.Errorf("schema = %q, want %q", doc.Schema, benchSchema)
	}
	if doc.GeneratedUnixMS <= 0 {
		t.Error("generated_unix_ms not set")
	}
	if doc.Config.N != 5 || doc.Config.Workers != 4 || len(doc.Config.Seeds) != 1 {
		t.Errorf("config echo wrong: %+v", doc.Config)
	}
	wantIDs := map[string]bool{}
	for _, id := range doc.Config.Experiments {
		wantIDs[id] = true
	}
	if len(doc.Results) != len(doc.Config.Experiments) {
		t.Fatalf("%d results for %d experiments", len(doc.Results), len(doc.Config.Experiments))
	}
	for _, r := range doc.Results {
		if !wantIDs[r.Experiment] {
			t.Errorf("result for unknown experiment %q", r.Experiment)
		}
		if r.Error != "" {
			t.Errorf("%s failed: %s", r.Experiment, r.Error)
			continue
		}
		if r.Title == "" {
			t.Errorf("%s: empty title", r.Experiment)
		}
		if len(r.Columns) == 0 && r.Text == "" {
			t.Errorf("%s: neither table nor text body", r.Experiment)
			continue
		}
		for i, row := range r.Rows {
			if len(row) != len(r.Columns) {
				t.Errorf("%s row %d: %d cells for %d columns", r.Experiment, i, len(row), len(r.Columns))
			}
			for j, cell := range row {
				if _, ok := cell["text"]; !ok {
					t.Errorf("%s row %d cell %d: missing text", r.Experiment, i, j)
				}
			}
		}
		if r.WallMS < 0 {
			t.Errorf("%s: negative wall_ms", r.Experiment)
		}
	}
	if doc.Cache.Runs == 0 {
		t.Error("cache trailer reports zero simulation runs")
	}
}

// TestBenchJSONRecordsFailures checks a bad experiment id lands in the
// document as an error entry instead of being dropped.
func TestBenchJSONRecordsFailures(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-experiment", "bogus,tab1", "-n", "20", "-json", path}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Results []struct {
			Experiment string `json:"experiment"`
			Error      string `json:"error"`
		} `json:"results"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Results) != 2 {
		t.Fatalf("results = %d, want 2", len(doc.Results))
	}
	if doc.Results[0].Experiment != "bogus" || doc.Results[0].Error == "" {
		t.Errorf("bogus entry = %+v, want recorded error", doc.Results[0])
	}
	if doc.Results[1].Experiment != "tab1" || doc.Results[1].Error != "" {
		t.Errorf("tab1 entry = %+v, want clean result", doc.Results[1])
	}
}
