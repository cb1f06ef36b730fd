// fastiov-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	fastiov-bench -list
//	fastiov-bench -experiment fig11
//	fastiov-bench -experiment all -n 100
//	fastiov-bench -experiment fig12 -csv
//	fastiov-bench -experiment all -workers 8 -seeds 5
//	fastiov-bench -experiment all -verify-determinism
//	fastiov-bench -experiment tab1 -faults "vfio-reset:p=0.1;crash@dma:p=0.2"
//	fastiov-bench -experiment recovery
//	fastiov-bench -experiment contention -n 100
//	fastiov-bench -experiment fleet -hosts 100 -n 20
//	fastiov-bench -experiment fleet -policy vf-aware
//	fastiov-bench -experiment serving -rate 64 -policy slo-aware
//	fastiov-bench -experiment serving -tenants "api:rate=40;batch:rate=20,prio=low"
//	fastiov-bench -experiment slowatch
//	fastiov-bench -experiment serving -observe -verify-determinism
//	fastiov-bench -trace out.json -n 50 -baseline fastiov
//	fastiov-bench -metrics m.om -metrics-csv m.csv -dashboard -n 50
//	fastiov-bench -journey-trace j.json -journey-log j.jsonl -alerts alerts.txt \
//	  -faults "host-crash@600ms:host=0;host-recover=300ms"
//
// With -n <= 0 every experiment runs at its paper-default parameters
// (concurrency 200 for the headline results). -csv emits the table as CSV
// instead of aligned text. -workers fans independent simulation runs across
// a worker pool (0 = GOMAXPROCS); -seeds K sweeps each scenario over seeds
// 1..K and reports scalar metrics as mean ±95% CI; -verify-determinism runs
// every simulation twice and every experiment both parallel and serial,
// failing on any byte-level divergence; -faults injects a deterministic
// fault plan (site:key=value clauses, including crash@<stage> startup
// aborts; see EXPERIMENTS.md) into every experiment that does not sweep
// its own plans (chaos and recovery pin theirs).
//
// The export modes (-trace; -metrics, -metrics-csv, -dashboard;
// -journey-trace, -journey-log, -alerts) each cut their artifacts from one
// run instead of running experiments. Flags of one mode combine; flags of
// two modes, or an export mode with -experiment or -list, are a usage
// error. -baseline picks the export run's baseline (default vanilla for
// the trace and metrics modes, fastiov for the journey mode).
//
// Every harness run is leak-audited: after measurement the surviving
// sandboxes are stopped and the host's conservation counters (free VFs,
// pages, IOMMU mappings, devset opens, vhost registrations) are diffed
// against the boot baseline. A dirty audit fails the experiment with the
// full counter diff.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"fastiov"
)

// sanitize maps an experiment id to a safe file stem.
func sanitize(id string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-':
			return r
		case r == '.':
			return '_'
		default:
			return '_'
		}
	}, id)
}

// run executes the CLI against argv (without the program name), writing
// reports to stdout and diagnostics to stderr, and returns the exit code.
// A failing experiment no longer aborts the batch: every requested id runs,
// errors are reported per id, and the exit code is 1 if any failed.
func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fastiov-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		experiment = fs.String("experiment", "all", "experiment id (see -list), comma list, or 'all'")
		n          = fs.Int("n", 0, "concurrency override (<=0 = paper defaults)")
		csv        = fs.Bool("csv", false, "emit tables as CSV")
		outDir     = fs.String("out", "", "also write each experiment's table as CSV into this directory")
		list       = fs.Bool("list", false, "list experiment ids and exit")
		seeds      = fs.Int("seeds", 1, "seeds per scenario (sweep over seeds 1..K; scalar metrics become mean ±95% CI)")
		workers    = fs.Int("workers", 1, "concurrent simulation runs (0 = GOMAXPROCS)")
		verify     = fs.Bool("verify-determinism", false, "run each simulation twice and each experiment parallel+serial, failing on divergence")
		faults     = fs.String("faults", "", "fault plan injected into every experiment, e.g. 'vfio-reset:p=0.1;dma-map:every=5'")
		tracePath  = fs.String("trace", "", "write a Chrome trace-event JSON of one traced startup run to this file and exit (load in ui.perfetto.dev)")
		base       = fs.String("baseline", "", "baseline of the export modes' run (empty = vanilla for -trace and the metrics exports, fastiov for the journey exports)")
		mtbf       = fs.Duration("mtbf", 0, "availability experiment host MTBF, e.g. 2s (<=0 = the default MTBF/MTTR ladder)")
		hosts      = fs.Int("hosts", 0, "fleet/serving experiment host count (<=0 = paper-scale default)")
		policy     = fs.String("policy", "", "restrict the fleet experiment to one placement policy (random|rr|least-loaded|vf-aware), or with -experiment serving|availability|slowatch one admission policy (fifo|token-bucket|slo-aware); empty sweeps all")
		rate       = fs.Float64("rate", 0, "serving experiment offered load in req/s (<=0 = the default overload ladder)")
		tenants    = fs.String("tenants", "", "serving experiment workload spec, e.g. 'api:rate=40;batch:rate=20,prio=low' (empty = default tenant mix)")
		jsonPath   = fs.String("json", "", "also write machine-readable results (fastiov-bench/v1 schema, see BENCH_SCHEMA.md) to this file")
		metricsOut = fs.String("metrics", "", "write an OpenMetrics snapshot of one metered startup run to this file and exit")
		metricsCSV = fs.String("metrics-csv", "", "write the sampled per-metric time series of one metered startup run as CSV to this file and exit")
		dashboard  = fs.Bool("dashboard", false, "print an ASCII host dashboard of one metered startup run and exit")
		observe    = fs.Bool("observe", false, "switch every observer (trace, metrics, serving journeys) on for every run (pure observation; reports render identically)")
		jtracePath = fs.String("journey-trace", "", "write a Chrome trace-event JSON of one journey-traced serving run to this file and exit (load in ui.perfetto.dev)")
		jlogPath   = fs.String("journey-log", "", "write the canonical JSONL span log of one journey-traced serving run to this file and exit")
		alertsPath = fs.String("alerts", "", "write the alert engine's timeline of one journey-traced serving run to this file and exit")
		alertRules = fs.String("alert-rules", "", "alert rule spec for -alerts and the slowatch experiment exports (empty = the default slo-burn + crash-seen rules)")
	)
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if err := fastiov.ValidateFaultSpec(*faults); err != nil {
		fmt.Fprintln(stderr, "fastiov-bench: -faults:", err)
		return 2
	}
	if err := fastiov.ValidateWorkloadSpec(*tenants); err != nil {
		fmt.Fprintln(stderr, "fastiov-bench: -tenants:", err)
		return 2
	}
	// Each export mode cuts its artifacts from one run of its own, so
	// flags of two modes, or an export mode and an experiment run, cannot
	// share an invocation.
	var on []string
	mode, modes := "", map[string]bool{}
	for _, e := range []struct {
		mode, flag string
		set        bool
	}{
		{"trace", "-trace", *tracePath != ""},
		{"metrics", "-metrics", *metricsOut != ""},
		{"metrics", "-metrics-csv", *metricsCSV != ""},
		{"metrics", "-dashboard", *dashboard},
		{"journey", "-journey-trace", *jtracePath != ""},
		{"journey", "-journey-log", *jlogPath != ""},
		{"journey", "-alerts", *alertsPath != ""},
	} {
		if e.set {
			on = append(on, e.flag)
			mode, modes[e.mode] = e.mode, true
		}
	}
	experimentSet := false
	fs.Visit(func(f *flag.Flag) { experimentSet = experimentSet || f.Name == "experiment" })
	switch {
	case len(modes) > 1:
		fmt.Fprintf(stderr, "fastiov-bench: %s belong to different export modes; run one mode at a time\n", strings.Join(on, " "))
		return 2
	case mode != "" && experimentSet:
		fmt.Fprintf(stderr, "fastiov-bench: -experiment cannot be combined with %s\n", strings.Join(on, " "))
		return 2
	case mode != "" && *list:
		fmt.Fprintf(stderr, "fastiov-bench: -list cannot be combined with %s\n", strings.Join(on, " "))
		return 2
	case mode == "" && *base != "":
		fmt.Fprintln(stderr, "fastiov-bench: -baseline needs an export mode (-trace, -metrics, -metrics-csv, -dashboard, -journey-trace, -journey-log or -alerts)")
		return 2
	}
	b := *base
	if b == "" {
		b = "vanilla"
		if mode == "journey" {
			b = "fastiov"
		}
	}
	exportN := *n
	if exportN <= 0 {
		exportN = 50
	}
	seed := fastiov.SeedList(*seeds)[0]
	switch mode {
	case "trace":
		// One traced run of the startup scenario, written as Chrome JSON.
		return writeExports(stdout, stderr, "-trace",
			[]export{{*tracePath, fmt.Sprintf("(%s, %d containers); load it in ui.perfetto.dev or chrome://tracing", b, exportN)}},
			func(ws []io.Writer) error { return fastiov.WriteStartupTrace(ws[0], b, exportN, seed) })
	case "metrics":
		// One metered run of the startup scenario, exported as an
		// OpenMetrics snapshot, a CSV time series, a dashboard, or any
		// combination. The bytes are a pure function of (baseline, n, seed).
		reg, err := fastiov.StartupMetrics(b, exportN, seed)
		if err != nil {
			fmt.Fprintln(stderr, "fastiov-bench: -metrics:", err)
			return 1
		}
		note := func(format string) string {
			return fmt.Sprintf("(%s, %s, %d containers, %d instruments, %d samples @ %v)",
				format, b, exportN, len(reg.IDs()), reg.Samples(), reg.Cadence())
		}
		code := writeExports(stdout, stderr, "-metrics",
			[]export{{*metricsOut, note("OpenMetrics")}, {*metricsCSV, note("CSV time series")}},
			func(ws []io.Writer) error {
				for i, write := range []func(io.Writer) error{reg.WriteOpenMetrics, reg.WriteCSV} {
					if ws[i] == nil {
						continue
					}
					if err := write(ws[i]); err != nil {
						return err
					}
				}
				return nil
			})
		if code == 0 && *dashboard {
			fmt.Fprintf(stdout, "%s, concurrency %d:\n%s", b, exportN, reg.Dashboard(100))
		}
		return code
	case "journey":
		// One journey-traced serving run, exported as a Perfetto track
		// group, a JSONL span log, an alert timeline, or any combination.
		rules := *alertRules
		if rules == "" && *alertsPath != "" {
			rules = fastiov.DefaultAlertRules
		}
		if err := fastiov.ValidateAlertRules(rules); err != nil {
			fmt.Fprintln(stderr, "fastiov-bench: -alert-rules:", err)
			return 2
		}
		cfg := fastiov.JourneyExportConfig{
			Baseline:   b,
			Policy:     *policy,
			Hosts:      *hosts,
			Rate:       *rate,
			FaultSpec:  *faults,
			AlertRules: rules,
			Seed:       seed,
		}
		return writeExports(stdout, stderr, "-journey",
			[]export{
				{*jtracePath, "(Perfetto journey track group; load in ui.perfetto.dev)"},
				{*jlogPath, "(canonical JSONL span log)"},
				{*alertsPath, "(alert timeline)"},
			},
			func(ws []io.Writer) error { return fastiov.WriteJourneyExports(cfg, ws[0], ws[1], ws[2]) })
	}

	// The serving, availability and slowatch experiments route the shared
	// -policy flag to the admission control plane rather than the fleet
	// placement layer.
	servePolicy := ""
	if *experiment == "serving" || *experiment == "availability" || *experiment == "slowatch" {
		servePolicy = *policy
		*policy = ""
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintln(stderr, "fastiov-bench:", err)
			return 1
		}
	}

	suite := fastiov.NewSuite(fastiov.RunConfig{
		Workers:           *workers,
		Seeds:             fastiov.SeedList(*seeds),
		VerifyDeterminism: *verify,
		FaultSpec:         *faults,
		Observe:           *observe,
		Fleet:             fastiov.FleetConfig{Hosts: *hosts, Policy: *policy},
		Serve:             fastiov.ServeConfig{Hosts: *hosts, Policy: servePolicy, Tenants: *tenants, Rate: *rate},
		Availability:      fastiov.AvailabilityConfig{MTBF: *mtbf},
	})
	entries := suite.Experiments()
	if *list {
		for _, e := range entries {
			fmt.Fprintf(stdout, "%-10s %s\n", e.ID, e.Title)
		}
		return 0
	}

	var ids []string
	if *experiment == "all" {
		for _, e := range entries {
			ids = append(ids, e.ID)
		}
	} else {
		for _, id := range strings.Split(*experiment, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
	}
	var bench *benchFile
	if *jsonPath != "" {
		bench = newBenchFile(ids, *n, fastiov.SeedList(*seeds), *workers, *faults, *verify)
	}

	failed := 0
	total := time.Now()
	for _, id := range ids {
		start := time.Now()
		if *verify {
			if err := suite.VerifyDeterminism(id, *n); err != nil {
				fmt.Fprintf(stderr, "fastiov-bench: %s: determinism: %v\n", id, err)
				if bench != nil {
					bench.add(id, nil, err, time.Since(start))
				}
				failed++
				continue
			}
		}
		rep, err := suite.Run(id, *n)
		if bench != nil {
			bench.add(id, rep, err, time.Since(start))
		}
		if err != nil {
			fmt.Fprintf(stderr, "fastiov-bench: %s: %v\n", id, err)
			failed++
			continue
		}
		if *csv && rep.Table != nil {
			fmt.Fprintf(stdout, "# %s: %s\n%s", rep.ID, rep.Title, rep.Table.CSV())
		} else {
			fmt.Fprint(stdout, rep.String())
		}
		if *outDir != "" && rep.Table != nil {
			path := filepath.Join(*outDir, sanitize(rep.ID)+".csv")
			if err := os.WriteFile(path, []byte(rep.Table.CSV()), 0o644); err != nil {
				fmt.Fprintln(stderr, "fastiov-bench:", err)
				failed++
				continue
			}
		}
		fmt.Fprintf(stdout, "(%s completed in %v wall time)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	if len(ids) > 1 {
		st := suite.CacheStats()
		fmt.Fprintf(stdout, "(suite: %d experiments in %v; %d sim runs, %d cache hits",
			len(ids), time.Since(total).Round(time.Millisecond), st.Runs, st.Hits)
		if st.Verified > 0 {
			fmt.Fprintf(stdout, ", %d verified", st.Verified)
		}
		fmt.Fprint(stdout, ")\n")
	}
	if bench != nil {
		st := suite.CacheStats()
		bench.Cache = benchCache{Runs: st.Runs, Hits: st.Hits, Verified: st.Verified}
		if err := bench.writeTo(*jsonPath); err != nil {
			fmt.Fprintln(stderr, "fastiov-bench: -json:", err)
			failed++
		} else {
			fmt.Fprintf(stdout, "wrote %s (%s, %d experiments)\n", *jsonPath, benchSchema, len(bench.Results))
		}
	}
	if failed > 0 {
		fmt.Fprintf(stderr, "fastiov-bench: %d of %d experiments failed\n", failed, len(ids))
		return 1
	}
	return 0
}

// export is one file a standalone export mode writes: the path its flag
// names (empty = not requested) and the note reported once it is written.
type export struct{ path, note string }

// writeExports creates every requested file, hands the open files to write
// in order (nil for files not requested), closes them, and reports each
// one written. A failure is diagnosed under the mode's flag and returns
// exit code 1.
func writeExports(stdout, stderr io.Writer, flag string, files []export, write func([]io.Writer) error) int {
	ws := make([]io.Writer, len(files))
	var opened []*os.File
	var err error
	for i, f := range files {
		if f.path == "" {
			continue
		}
		var fh *os.File
		if fh, err = os.Create(f.path); err != nil {
			break
		}
		opened = append(opened, fh)
		ws[i] = fh
	}
	if err == nil {
		err = write(ws)
	}
	for _, fh := range opened {
		if cerr := fh.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "fastiov-bench: %s: %v\n", flag, err)
		return 1
	}
	for _, f := range files {
		if f.path != "" {
			fmt.Fprintf(stdout, "wrote %s %s\n", f.path, f.note)
		}
	}
	return 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
