package interval

import (
	"math"
	"testing"
)

// Overlaps reports whether the intervals share at least one value: the
// disjointness the AACSSR rows keep, which only tests check.
func Overlaps(a, b Interval) bool { return !Intersect(a, b).Empty() }

func TestIntervalConstructorsAndContains(t *testing.T) {
	cases := []struct {
		iv   Interval
		in   []float64
		out  []float64
		name string
	}{
		{Range(8.30, 8.70, true, true), []float64{8.4, 8.5, 8.69}, []float64{8.30, 8.70, 8.2, 9}, "(8.3,8.7)"},
		{Range(8.30, 8.70, false, false), []float64{8.30, 8.70, 8.5}, []float64{8.29, 8.71}, "[8.3,8.7]"},
		{Below(8.70, false), []float64{-1e9, 0, 8.69}, []float64{8.70, 9}, "<8.7"},
		{Below(8.70, true), []float64{8.70}, []float64{8.71}, "<=8.7"},
		{Above(130000, false), []float64{130001, 1e12}, []float64{130000, 0}, ">130000"},
		{Above(130000, true), []float64{130000}, []float64{129999}, ">=130000"},
		{Point(8.20), []float64{8.20}, []float64{8.19, 8.21}, "=8.2"},
		{Full(), []float64{-1e300, 0, 1e300}, nil, "full"},
	}
	for _, c := range cases {
		for _, v := range c.in {
			if !c.iv.Contains(v) {
				t.Errorf("%s should contain %g", c.name, v)
			}
		}
		for _, v := range c.out {
			if c.iv.Contains(v) {
				t.Errorf("%s should not contain %g", c.name, v)
			}
		}
		if c.iv.Empty() {
			t.Errorf("%s should not be empty", c.name)
		}
	}
}

func TestIntervalEmpty(t *testing.T) {
	empties := []Interval{
		Range(2, 1, false, false),
		Range(1, 1, true, false),
		Range(1, 1, false, true),
		Range(1, 1, true, true),
		Intersect(Below(1, false), Above(1, false)),
		Intersect(Point(1), Point(2)),
	}
	for i, iv := range empties {
		if !iv.Empty() {
			t.Errorf("case %d: %v should be empty", i, iv)
		}
	}
	if Point(1).Empty() {
		t.Error("point should not be empty")
	}
}

func TestIntervalIntersect(t *testing.T) {
	got := Intersect(Above(8.30, false), Below(8.70, false))
	want := Range(8.30, 8.70, true, true)
	if !got.Equal(want) {
		t.Fatalf("Intersect = %v, want %v", got, want)
	}
	got = Intersect(Range(1, 5, false, false), Range(3, 8, false, false))
	want = Range(3, 5, false, false)
	if !got.Equal(want) {
		t.Fatalf("Intersect = %v, want %v", got, want)
	}
	// Touching at a shared closed endpoint yields a point.
	got = Intersect(Range(1, 3, false, false), Range(3, 8, false, false))
	if v, ok := got.IsPoint(); !ok || v != 3 {
		t.Fatalf("Intersect = %v, want point 3", got)
	}
	// Touching open/closed yields empty.
	if !Intersect(Range(1, 3, false, true), Range(3, 8, false, false)).Empty() {
		t.Fatal("open/closed touch should be empty")
	}
}

func TestIntervalCovers(t *testing.T) {
	cases := []struct {
		a, b Interval
		want bool
	}{
		{Full(), Point(5), true},
		{Range(1, 9, false, false), Range(2, 8, true, true), true},
		{Range(1, 9, true, true), Range(1, 9, true, true), true},
		{Range(1, 9, true, true), Range(1, 9, false, true), false}, // b includes 1, a doesn't
		{Range(1, 9, false, false), Range(1, 9, true, false), true},
		{Range(2, 8, false, false), Range(1, 9, false, false), false},
		{Point(5), Point(5), true},
		{Point(5), Point(6), false},
		{Above(3, false), Above(4, false), true},
		{Above(4, false), Above(3, false), false},
		{Below(3, true), Point(3), true},
		{Below(3, false), Point(3), false},
		{Range(1, 2, false, false), Range(5, 4, false, false), true}, // empty b
	}
	for i, c := range cases {
		if got := Covers(c.a, c.b); got != c.want {
			t.Errorf("case %d: Covers(%v, %v) = %v, want %v", i, c.a, c.b, got, c.want)
		}
	}
}

func TestIntervalOverlaps(t *testing.T) {
	if !Overlaps(Range(1, 5, false, false), Range(5, 9, false, false)) {
		t.Error("closed touch should overlap")
	}
	if Overlaps(Range(1, 5, false, true), Range(5, 9, false, false)) {
		t.Error("open touch should not overlap")
	}
	if Overlaps(Range(1, 2, false, false), Range(3, 4, false, false)) {
		t.Error("disjoint ranges overlap")
	}
}

func TestIntervalIsPoint(t *testing.T) {
	if _, ok := Range(1, 2, false, false).IsPoint(); ok {
		t.Error("range reported as point")
	}
	if v, ok := Point(7).IsPoint(); !ok || v != 7 {
		t.Error("point not reported")
	}
	if _, ok := Range(1, 1, true, false).IsPoint(); ok {
		t.Error("empty interval reported as point")
	}
}

func TestIntervalString(t *testing.T) {
	if got := Range(8.3, 8.7, true, false).String(); got != "(8.3, 8.7]" {
		t.Fatalf("String = %q", got)
	}
	if got := Range(2, 1, false, false).String(); got != "∅" {
		t.Fatalf("empty String = %q", got)
	}
}

func TestNormalizeInfinity(t *testing.T) {
	iv := Range(math.Inf(-1), math.Inf(1), false, false)
	if !iv.LoOpen || !iv.HiOpen {
		t.Fatal("infinite bounds must normalize to open")
	}
	if !iv.Equal(Full()) {
		t.Fatal("normalized full != Full()")
	}
}
