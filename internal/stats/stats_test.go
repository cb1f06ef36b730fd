package stats

import (
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestMean(t *testing.T) {
	s := FromDurations([]time.Duration{ms(100), ms(200), ms(300)})
	if got := s.Mean(); got != ms(200) {
		t.Errorf("mean = %v, want 200ms", got)
	}
}

func TestEmptySample(t *testing.T) {
	s := NewSample()
	if s.Mean() != 0 || s.P99() != 0 || s.Percentile(0) != 0 || s.Max() != 0 {
		t.Error("empty sample should return zeros")
	}
	if s.CDF(10) != nil {
		t.Error("empty CDF should be nil")
	}
}

func TestPercentileExtremes(t *testing.T) {
	s := FromDurations([]time.Duration{ms(10), ms(20), ms(30), ms(40)})
	if s.Percentile(0) != ms(10) {
		t.Errorf("p0 = %v", s.Percentile(0))
	}
	if s.Percentile(100) != ms(40) {
		t.Errorf("p100 = %v", s.Percentile(100))
	}
	if s.Percentile(-5) != ms(10) || s.Percentile(150) != ms(40) {
		t.Error("out-of-range percentiles should clamp")
	}
}

func TestPercentileInterpolation(t *testing.T) {
	s := FromDurations([]time.Duration{ms(0), ms(100)})
	if got := s.Percentile(50); got != ms(50) {
		t.Errorf("p50 of {0,100} = %v, want 50ms", got)
	}
}

func TestSingleValue(t *testing.T) {
	s := FromDurations([]time.Duration{ms(42)})
	for _, p := range []float64{0, 50, 99, 100} {
		if s.Percentile(p) != ms(42) {
			t.Errorf("p%v of single value = %v", p, s.Percentile(p))
		}
	}
}

// TestP999Degenerate pins the new p99.9 path at the sample sizes where
// quantile code traditionally breaks: n=0 must return zero (not panic or
// index out of range) and n=1 must return the lone value, exactly like the
// guarded lower quantiles.
func TestP999Degenerate(t *testing.T) {
	if got := NewSample().P999(); got != 0 {
		t.Errorf("p99.9 of empty sample = %v, want 0", got)
	}
	one := FromDurations([]time.Duration{ms(42)})
	if got := one.P999(); got != ms(42) {
		t.Errorf("p99.9 of single value = %v, want 42ms", got)
	}
}

// TestP999Monotone checks p99.9 sits between p99 and the max, and lands in
// the top interpolation interval of a uniform sample.
func TestP999Monotone(t *testing.T) {
	s := NewSample()
	for i := 1; i <= 1000; i++ {
		s.Add(ms(i))
	}
	p99, p999, max := s.P99(), s.P999(), s.Max()
	if p999 < p99 || p999 > max {
		t.Errorf("p99.9 %v outside [p99 %v, max %v]", p999, p99, max)
	}
	if p999 < ms(999) {
		t.Errorf("p99.9 of 1..1000ms = %v, want >= 999ms", p999)
	}
}

func TestP99OfUniform(t *testing.T) {
	s := NewSample()
	for i := 1; i <= 100; i++ {
		s.Add(ms(i))
	}
	p99 := s.P99()
	if p99 < ms(99) || p99 > ms(100) {
		t.Errorf("p99 of 1..100ms = %v", p99)
	}
}

func TestAddAfterSortKeepsCorrectness(t *testing.T) {
	s := NewSample()
	s.Add(ms(30))
	s.Add(ms(10))
	_ = s.Percentile(0) // forces sort
	s.Add(ms(5))
	if got := s.Percentile(0); got != ms(5) {
		t.Errorf("min after late add = %v, want 5ms", got)
	}
}

func TestCDFMonotone(t *testing.T) {
	s := NewSample()
	for i := 0; i < 57; i++ {
		s.Add(ms(i * 13 % 100))
	}
	cdf := s.CDF(20)
	if len(cdf) == 0 {
		t.Fatal("empty CDF")
	}
	for i := 1; i < len(cdf); i++ {
		if cdf[i].Value < cdf[i-1].Value || cdf[i].Frac < cdf[i-1].Frac {
			t.Fatalf("CDF not monotone at %d: %v", i, cdf)
		}
	}
	last := cdf[len(cdf)-1]
	if last.Frac != 1.0 {
		t.Errorf("CDF does not end at 1.0: %v", last.Frac)
	}
	if last.Value != s.Max() {
		t.Errorf("CDF does not end at max")
	}
}

func TestCDFAllPoints(t *testing.T) {
	s := FromDurations([]time.Duration{ms(1), ms(2), ms(3)})
	cdf := s.CDF(0)
	if len(cdf) != 3 {
		t.Fatalf("CDF(0) should use every observation, got %d points", len(cdf))
	}
}

func TestReductionRatio(t *testing.T) {
	if got := ReductionRatio(ms(1000), ms(343)); math.Abs(got-0.657) > 1e-9 {
		t.Errorf("reduction = %v, want 0.657", got)
	}
	if ReductionRatio(0, ms(10)) != 0 {
		t.Error("zero old should return 0")
	}
}

func TestOverheadRatio(t *testing.T) {
	if got := OverheadRatio(ms(100), ms(405)); math.Abs(got-3.05) > 1e-9 {
		t.Errorf("overhead = %v, want 3.05", got)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("name", "time", "ratio")
	tb.AddRow("vanilla", ms(16200), 3.05)
	tb.AddRow("fastiov", ms(5560), 0.39)
	out := tb.String()
	if !strings.Contains(out, "vanilla") || !strings.Contains(out, "16.2s") {
		t.Errorf("table output:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Errorf("want 4 lines (header, sep, 2 rows), got %d", len(lines))
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("a", "b")
	tb.AddRow("x,y", "plain")
	csv := tb.CSV()
	if !strings.Contains(csv, `"x,y"`) {
		t.Errorf("CSV escaping broken: %q", csv)
	}
	if !strings.HasPrefix(csv, "a,b\n") {
		t.Errorf("CSV header broken: %q", csv)
	}
}

// Property: percentile is monotone in p and bounded by [min, max].
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		s := NewSample()
		for _, v := range raw {
			s.Add(time.Duration(v) * time.Microsecond)
		}
		prev := s.Percentile(0)
		for p := 5.0; p <= 100; p += 5 {
			cur := s.Percentile(p)
			if cur < prev {
				return false
			}
			prev = cur
		}
		return s.Percentile(0) >= time.Duration(slices.Min(raw))*time.Microsecond && s.Percentile(100) <= s.Max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: mean lies within [min, max].
func TestMeanBoundedProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		s := NewSample()
		for _, v := range raw {
			s.Add(time.Duration(v))
		}
		m := s.Mean()
		return m >= time.Duration(slices.Min(raw)) && m <= s.Max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
