// Package harness is the parallel scenario-execution engine behind the
// experiment suite. Every paper figure decomposes into independent
// deterministic simulation runs — one per (scenario parameters, seed) — and
// the harness fans those runs across a bounded worker pool, memoizing each
// result so that scenarios shared by several figures (e.g. vanilla at
// concurrency 200, which Fig. 1, Fig. 5, Tab. 1, Fig. 11, Fig. 12 and
// Fig. 14 all need) simulate exactly once per process.
//
// Three properties make the parallelism safe:
//
//   - every job is a pure function of its Key: it builds a private sim
//     kernel from the seed and shares no mutable state with other jobs;
//   - results enter the cache exactly once (singleflight) and are treated
//     as immutable afterwards — consumers may read concurrently but must
//     never mutate a cached value;
//   - an optional verification mode (the correctness backstop) re-executes
//     every job and fails loudly on any byte-level divergence between the
//     two runs' fingerprints, so a nondeterministic kernel cannot silently
//     corrupt figures.
package harness

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
)

// Key identifies one schedulable simulation run. Scope names the scenario
// class ("startup", "serverless", ...), Params is a canonical encoding of
// every input that shapes the run, and Seed selects the PRNG stream. Two
// jobs with equal Keys must compute identical results; the cache relies on
// it.
type Key struct {
	Scope  string
	Params string
	Seed   uint64
}

// String renders the key for error messages and cache diagnostics.
func (k Key) String() string {
	return fmt.Sprintf("%s{%s}@seed=%d", k.Scope, k.Params, k.Seed)
}

// Job is one unit of schedulable work.
type Job struct {
	Key Key
	// Fn computes the result. It must be deterministic given Key and must
	// not mutate shared state; it runs on an arbitrary worker goroutine.
	Fn func() (any, error)
	// Fingerprint, when non-nil, serializes a result into canonical bytes
	// for determinism verification. Two executions of Fn must produce
	// byte-identical fingerprints.
	Fingerprint func(any) ([]byte, error)
}

// Stats counts cache traffic and verification work.
type Stats struct {
	// Runs is the number of job executions (verification reruns excluded).
	Runs int
	// Hits is the number of jobs satisfied from the cache, including jobs
	// that waited on an in-flight computation of the same key.
	Hits int
	// Verified is the number of double-run determinism checks performed.
	Verified int
}

// DivergenceError reports a determinism violation: two executions of the
// same job disagreed at the byte level.
type DivergenceError struct {
	Key    Key
	Offset int    // first differing byte
	Detail string // context around the divergence
}

func (e *DivergenceError) Error() string {
	return fmt.Sprintf("harness: nondeterministic result for %s: first divergence at byte %d: %s",
		e.Key, e.Offset, e.Detail)
}

// entry is one cache slot, computed once (singleflight).
type entry struct {
	done chan struct{}
	val  any
	err  error
}

// Pool executes jobs across a bounded set of workers with a process-wide
// (per-Pool) result cache.
type Pool struct {
	workers int
	verify  bool

	mu    sync.Mutex
	cache map[Key]*entry
	stats Stats
}

// New returns a pool running at most workers jobs concurrently. workers <= 0
// selects GOMAXPROCS.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers, cache: make(map[Key]*entry)}
}

// SetVerify toggles determinism verification: every subsequent cache miss
// executes its job twice and fails with a *DivergenceError if the two runs'
// fingerprints differ.
func (p *Pool) SetVerify(v bool) { p.verify = v }

// Stats returns a snapshot of cache and verification counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Do executes all jobs, fanning them across the worker pool, and returns
// their results in input order. Jobs whose Key is already cached (or being
// computed by a concurrent Do) do not re-execute. On failure, every job
// still runs to completion and the returned error joins every distinct
// failure; failed slots hold nil.
func (p *Pool) Do(jobs []Job) ([]any, error) {
	results := make([]any, len(jobs))
	errs := make([]error, len(jobs))
	idx := make(chan int)
	var wg sync.WaitGroup
	workers := p.workers
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers < 1 {
		workers = 1
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i], errs[i] = p.resolve(jobs[i])
			}
		}()
	}
	for i := range jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return results, joinDistinct(errs)
}

// One runs a single job through the pool's cache (no fan-out).
func (p *Pool) One(job Job) (any, error) { return p.resolve(job) }

// resolve returns the job's result, computing it at most once per key.
func (p *Pool) resolve(job Job) (any, error) {
	p.mu.Lock()
	e := p.cache[job.Key]
	if e != nil {
		p.stats.Hits++
		p.mu.Unlock()
		<-e.done
		return e.val, e.err
	}
	e = &entry{done: make(chan struct{})}
	p.cache[job.Key] = e
	p.stats.Runs++
	verify := p.verify
	if verify {
		p.stats.Verified++
	}
	p.mu.Unlock()

	e.val, e.err = p.execute(job, verify)
	close(e.done)
	return e.val, e.err
}

// execute runs the job, doubling the run in verify mode.
func (p *Pool) execute(job Job, verify bool) (any, error) {
	val, err := job.Fn()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", job.Key, err)
	}
	if !verify {
		return val, nil
	}
	val2, err2 := job.Fn()
	if err2 != nil {
		return nil, fmt.Errorf("%s: rerun: %w", job.Key, err2)
	}
	if job.Fingerprint == nil {
		return val, nil
	}
	fp1, err := job.Fingerprint(val)
	if err != nil {
		return nil, fmt.Errorf("%s: fingerprint: %w", job.Key, err)
	}
	fp2, err := job.Fingerprint(val2)
	if err != nil {
		return nil, fmt.Errorf("%s: fingerprint rerun: %w", job.Key, err)
	}
	if !bytes.Equal(fp1, fp2) {
		off, detail := FirstDivergence(fp1, fp2)
		return nil, &DivergenceError{Key: job.Key, Offset: off, Detail: detail}
	}
	return val, nil
}

// joinDistinct joins non-nil errors, deduplicating identical messages (a
// cached failure surfaces once even when many jobs share the key).
func joinDistinct(errs []error) error {
	seen := make(map[string]struct{})
	var distinct []error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if _, ok := seen[err.Error()]; ok {
			continue
		}
		seen[err.Error()] = struct{}{}
		distinct = append(distinct, err)
	}
	return errors.Join(distinct...)
}

// FirstDivergence locates the first differing byte of a and b and renders
// printable context around it, for divergence reports.
func FirstDivergence(a, b []byte) (offset int, detail string) {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	if i == n && len(a) == len(b) {
		return -1, "byte-identical"
	}
	ctx := func(s []byte) string {
		lo := i - 20
		if lo < 0 {
			lo = 0
		}
		hi := i + 20
		if hi > len(s) {
			hi = len(s)
		}
		return strings.Map(func(r rune) rune {
			if r == '\n' {
				return '␤'
			}
			return r
		}, string(s[lo:hi]))
	}
	return i, fmt.Sprintf("run1 %q vs run2 %q (lengths %d, %d)", ctx(a), ctx(b), len(a), len(b))
}
