package sweep

import (
	"cloudburst/internal/stats"
)

// Agg summarizes one metric within one group.
type Agg struct {
	N    int
	Mean float64
	Std  float64
	Min  float64
	Max  float64
}

// Group is the aggregate of every cell sharing a group-by key.
type Group struct {
	Key     string
	N       int
	Metrics map[string]Agg
}

// Metric returns the named aggregate (zero Agg when absent).
func (g Group) Metric(name string) Agg { return g.Metrics[name] }

// Aggregate groups results by keyOf and summarizes every canonical metric
// per group: mean, sample standard deviation, min and max. Groups are
// returned in first-appearance order over the (already deterministic)
// result slice, so aggregation output is itself deterministic. Observations
// are accumulated in result order, keeping the floating-point reduction
// bit-stable across runs.
func Aggregate(results []Result, keyOf func(Cell) string) []Group {
	names := MetricNames()
	type acc struct{ sums []stats.Summary }
	order := make([]string, 0, 8)
	byKey := make(map[string]*acc)
	for _, r := range results {
		key := keyOf(r.Cell)
		a, ok := byKey[key]
		if !ok {
			a = &acc{sums: make([]stats.Summary, len(names))}
			byKey[key] = a
			order = append(order, key)
		}
		for i, name := range names {
			a.sums[i].Add(r.Metrics.Value(name))
		}
	}
	out := make([]Group, len(order))
	for gi, key := range order {
		a := byKey[key]
		g := Group{Key: key, N: a.sums[0].N(), Metrics: make(map[string]Agg, len(names))}
		for i, name := range names {
			s := &a.sums[i]
			g.Metrics[name] = Agg{N: s.N(), Mean: s.Mean(), Std: s.Std(), Min: s.Min(), Max: s.Max()}
		}
		out[gi] = g
	}
	return out
}

// GroupByScheduler keys groups by scheduler name alone.
func GroupByScheduler(c Cell) string { return c.Scheduler }
