// fastiovctl is a crictl-style CLI over the simulated testbed: it starts
// pods concurrently, optionally runs a serverless application in each, and
// reports per-pod and aggregate timings.
//
// Usage:
//
//	fastiovctl baselines
//	fastiovctl runp -count 200 -baseline fastiov
//	fastiovctl runp -count 50 -baseline vanilla -app image -teardown
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"fastiov"
	"fastiov/internal/serverless"
	"fastiov/internal/sim"
)

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  fastiovctl baselines                     list baseline configurations
  fastiovctl apps                          list serverless benchmark apps
  fastiovctl runp [flags]                  concurrently start pods
    -count N        pods to start (default 10)
    -baseline NAME  configuration (default fastiov)
    -app NAME       run a serverless app in each pod
    -teardown       stop every pod after startup/app completion
    -v              per-pod output
`)
	os.Exit(2)
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "baselines":
		for _, b := range fastiov.Baselines() {
			fmt.Println(b)
		}
	case "apps":
		for _, a := range fastiov.Apps() {
			fmt.Printf("%-12s image=%dMB input=%dMB exec=%v\n",
				a.Name, a.ContainerImageBytes>>20, a.InputBytes>>20, a.ExecCPU)
		}
	case "runp":
		if err := runp(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "fastiovctl:", err)
			if errors.As(err, new(usageError)) {
				os.Exit(2)
			}
			os.Exit(1)
		}
	default:
		usage()
	}
}

// usageError marks a bad invocation (exit 2), as opposed to a run that
// failed (exit 1).
type usageError struct{ error }

// runp starts -count pods concurrently and prints their timings to stdout.
func runp(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("runp", flag.ContinueOnError)
	count := fs.Int("count", 10, "pods to start")
	baseline := fs.String("baseline", fastiov.BaselineFastIOV, "baseline configuration")
	appName := fs.String("app", "", "serverless app to run in each pod")
	teardown := fs.Bool("teardown", false, "stop pods afterwards")
	verbose := fs.Bool("v", false, "per-pod output")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return usageError{err}
	}
	if *count < 1 {
		return usageError{fmt.Errorf("runp: -count must be at least 1, got %d", *count)}
	}

	var app *fastiov.App
	if *appName != "" {
		for _, a := range fastiov.Apps() {
			if a.Name == *appName {
				a := a
				app = &a
			}
		}
		if app == nil {
			return fmt.Errorf("unknown app %q", *appName)
		}
	}

	opts, err := fastiov.OptionsFor(*baseline)
	if err != nil {
		return err
	}
	host, err := fastiov.NewHost(fastiov.DefaultHostSpec(), opts)
	if err != nil {
		return err
	}

	type podResult struct {
		startup, completion time.Duration
	}
	results := make([]podResult, *count)
	var failed error
	sandboxes := make([]any, *count)
	for i := 0; i < *count; i++ {
		i := i
		at := host.K.Rand().Duration(opts.StartJitter)
		host.K.GoAt(at, fmt.Sprintf("pod-%d", i), func(p *sim.Proc) {
			issued := p.Now()
			sb, err := host.Eng.RunPodSandbox(p, i)
			if err != nil {
				if failed == nil {
					failed = err
				}
				return
			}
			sandboxes[i] = sb
			results[i].startup = p.Now() - issued
			if app != nil {
				if err := serverless.Execute(p, host.Eng, sb, *app); err != nil {
					if failed == nil {
						failed = err
					}
					return
				}
				results[i].completion = p.Now() - issued
			}
			if *teardown {
				if err := host.Eng.StopPodSandbox(p, sb); err != nil && failed == nil {
					failed = err
				}
			}
		})
	}
	host.K.Run()
	if failed != nil {
		return failed
	}

	var sumStart, sumComp, maxStart time.Duration
	for i, r := range results {
		if *verbose {
			line := fmt.Sprintf("pod-%-4d startup=%v", i, r.startup.Round(time.Millisecond))
			if app != nil {
				line += fmt.Sprintf(" completion=%v", r.completion.Round(time.Millisecond))
			}
			fmt.Fprintln(stdout, line)
		}
		sumStart += r.startup
		sumComp += r.completion
		if r.startup > maxStart {
			maxStart = r.startup
		}
	}
	fmt.Fprintf(stdout, "%d pods, baseline=%s: avg startup %v, max %v\n",
		*count, *baseline,
		(sumStart / time.Duration(*count)).Round(time.Millisecond),
		maxStart.Round(time.Millisecond))
	if app != nil {
		fmt.Fprintf(stdout, "app=%s: avg completion %v\n", app.Name,
			(sumComp / time.Duration(*count)).Round(time.Millisecond))
	}
	if *teardown {
		fmt.Fprintf(stdout, "teardown complete: %d free VFs, %d free pages\n",
			host.NIC.FreeVFs(), host.Mem.FreePages())
	}
	return nil
}
