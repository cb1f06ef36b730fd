package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"runtime"
	"time"
)

// runner drives ops, records a span around every public call they make,
// and counts and checks every op.
type runner struct {
	log io.Writer
	// pinned maps a workload to the digest of its canonical bytes at seed 1.
	pinned map[string]string
	// first maps a workload to the digest of the run's first op.
	first map[string]string
	start time.Time
	spans []span

	attempted, failed int
}

func newRunner(log io.Writer) *runner {
	return &runner{log: log, pinned: pinnedDigests, first: map[string]string{}, start: time.Now()}
}

// span is one timed interval: an op (Parent 0) or one call into the
// simulator's public API made by that op.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	StartS float64 `json:"start_s"`
	EndS   float64 `json:"end_s"`
	// AllocBytes and Mallocs are the runtime.MemStats TotalAlloc and
	// Mallocs deltas over the span.
	AllocBytes uint64 `json:"alloc_bytes"`
	Mallocs    uint64 `json:"mallocs"`
}

// opCtx accumulates one op's timed calls. Set-up calls build the scenario
// (setup_s); the others are the op's timed part (op_s). Work between calls,
// such as correctness checks, is not timed.
type opCtx struct {
	r                *runner
	span             int
	m0               runtime.MemStats
	setupDur, runDur time.Duration
	alloc            uint64
}

func (r *runner) newOp(name string) *opCtx {
	c := &opCtx{r: r}
	runtime.ReadMemStats(&c.m0)
	c.span = r.open(name, 0, time.Now())
	return c
}

func (r *runner) endOp(c *opCtx) {
	var m1 runtime.MemStats
	t1 := time.Now()
	runtime.ReadMemStats(&m1)
	r.close(c.span, t1, &c.m0, &m1)
}

func (r *runner) open(name string, parent int, t0 time.Time) int {
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, StartS: t0.Sub(r.start).Seconds()})
	return len(r.spans)
}

func (r *runner) close(id int, t1 time.Time, m0, m1 *runtime.MemStats) {
	s := &r.spans[id-1]
	s.EndS = t1.Sub(r.start).Seconds()
	s.AllocBytes = m1.TotalAlloc - m0.TotalAlloc
	s.Mallocs = m1.Mallocs - m0.Mallocs
}

// setup times fn as scenario set-up.
func (c *opCtx) setup(name string, fn func() error) error { return c.timed(name, true, fn) }

// run times fn as part of the op.
func (c *opCtx) run(name string, fn func() error) error { return c.timed(name, false, fn) }

func (c *opCtx) timed(name string, setup bool, fn func() error) error {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	err := fn()
	t1 := time.Now()
	runtime.ReadMemStats(&m1)
	d := t1.Sub(t0)
	if setup {
		c.setupDur += d
	} else {
		c.runDur += d
	}
	c.alloc += m1.TotalAlloc - m0.TotalAlloc
	c.r.close(c.r.open(name, c.span, t0), t1, &m0, &m1)
	return err
}

// dur sums the durations of the op's calls named name, in seconds.
func (c *opCtx) dur(name string) float64 {
	var d float64
	for _, s := range c.r.spans[c.span:] {
		if s.Parent == c.span && s.Name == name {
			d += s.EndS - s.StartS
		}
	}
	return d
}

// allocMB sums the bytes the op's calls named name allocated, in MB.
func (c *opCtx) allocMB(name string) float64 {
	var b uint64
	for _, s := range c.r.spans[c.span:] {
		if s.Parent == c.span && s.Name == name {
			b += s.AllocBytes
		}
	}
	return float64(b) / 1e6
}

// record counts one attempted op; a non-nil err counts it as failed.
func (r *runner) record(what string, err error) {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintf(r.log, "FAIL %s (op %d): %v\n", what, r.attempted, err)
	}
}

// check counts one op of workload name and fails it on an error, or when
// its canonical bytes differ from the run's first op, or, at seed 1, from
// the pinned digest.
func (r *runner) check(name string, seed uint64, canon []byte, err error) {
	if err == nil {
		err = r.compare(name, seed, canon)
	}
	r.record(name, err)
}

func (r *runner) compare(name string, seed uint64, canon []byte) error {
	d := digest(canon)
	if first, ok := r.first[name]; !ok {
		r.first[name] = d
	} else if d != first {
		return fmt.Errorf("canonical digest %s differs from the run's first op (%s)", d, first)
	}
	if seed == 1 && d != r.pinned[name] {
		return fmt.Errorf("seed-1 canonical digest %s differs from the pinned %s", d, r.pinned[name])
	}
	return nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
