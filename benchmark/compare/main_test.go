package main

import "testing"

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "op_p50_us", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		name string
		m    metricSpec
		a, b []float64
		want string
	}{
		{"identical counts", lower, []float64{7853, 7853}, []float64{7853, 7853}, "unchanged"},
		{"within the bound", lower, []float64{100, 101, 102, 103}, []float64{104, 105, 106, 107}, "unchanged"},
		{"worse by more than the bound", lower, []float64{100, 101, 102, 103}, []float64{120, 121, 122, 123}, "worse"},
		{"rate fell by more than the bound", higher, []float64{100, 101, 102, 103}, []float64{80, 81, 82, 83}, "worse"},
		{"every run of B beats every run of A", lower, []float64{100, 140, 180, 220}, []float64{50, 60, 70, 80}, "better"},
		{"rate rose past A's spread and the bound", higher, []float64{100, 101, 102, 103}, []float64{120, 121, 122, 123}, "better"},
		{"spread wider than the bound", lower, []float64{100, 140, 180, 220}, []float64{110, 150, 190, 230}, "unresolved"},
	} {
		if got := verdict(c.m, summarize(c.a), summarize(c.b)); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}
