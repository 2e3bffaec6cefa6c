package stats

import (
	"fmt"
	"sort"
)

// Point is one (time, value) sample.
type Point struct {
	T float64
	V float64
}

// TimeSeries is an append-only sequence of timestamped samples. The figures
// in the paper (completion-time series, OO metric over time, bandwidth over
// the day) are all time series; this type carries them between the engine
// and the experiment harness.
type TimeSeries struct {
	Name   string
	Points []Point
}

// Append records a sample. Timestamps must be non-decreasing; regressions
// panic because they indicate an engine bug.
func (ts *TimeSeries) Append(t, v float64) {
	if n := len(ts.Points); n > 0 && t < ts.Points[n-1].T {
		panic(fmt.Sprintf("stats: time series %q went backwards: %v after %v",
			ts.Name, t, ts.Points[n-1].T))
	}
	ts.Points = append(ts.Points, Point{T: t, V: v})
}

// Len returns the number of samples.
func (ts *TimeSeries) Len() int { return len(ts.Points) }

// At returns the value in force at time t using step (zero-order hold)
// interpolation: the value of the latest sample with timestamp <= t. Before
// the first sample it returns the first sample's value; on an empty series
// it returns 0.
func (ts *TimeSeries) At(t float64) float64 {
	n := len(ts.Points)
	if n == 0 {
		return 0
	}
	i := sort.Search(n, func(i int) bool { return ts.Points[i].T > t })
	if i == 0 {
		return ts.Points[0].V
	}
	return ts.Points[i-1].V
}

// Last returns the final sample, or the zero Point on an empty series.
func (ts *TimeSeries) Last() Point {
	if len(ts.Points) == 0 {
		return Point{}
	}
	return ts.Points[len(ts.Points)-1]
}

// Sub returns pointwise a-b on a's grid (b evaluated by zero-order hold).
// The paper's Fig. 10 plots exactly this: scheduler OO series minus the
// IC-only baseline series.
func Sub(a, b *TimeSeries) *TimeSeries {
	out := &TimeSeries{Name: a.Name + "-" + b.Name}
	for _, p := range a.Points {
		out.Append(p.T, p.V-b.At(p.T))
	}
	return out
}
