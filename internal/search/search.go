// Package search is the adaptive frontier-search driver layered on
// internal/sweep: instead of enumerating a declared grid, it *finds* the
// boundary where an SLA predicate first fails. Along one continuous axis
// (network jitter, link bandwidth, arrival rate, EC-revocation MTBF,
// burst budget) it bisects between a healthy and a violating endpoint
// until the threshold crossing is bracketed to a configured tolerance,
// then hill-climbs over replication seeds at the violating edge toward
// the worst observed case. Every probe is an ordinary sweep cell — an
// off-grid sweep.SynthCell stamped with a configuration fingerprint — so
// probes dedup within a run and journal into the same crash-safe resume
// manifest the grid sweeps use: a killed search re-runs only the probes
// not yet on record.
//
// Like internal/sweep, the package never sees the public Options type:
// the caller supplies a Synth hook that turns (value, seed) into a
// fingerprinted cell and a Runner that executes it into a Metrics vector.
// The root package wires both to cloudburst.RunContext.
package search

import (
	"context"
	"fmt"

	"cloudburst/internal/sweep"
)

// Error reports an invalid search configuration. Every rejection from Run
// unwraps to this type.
type Error struct {
	Field  string // offending field, e.g. "axis" or "predicates"
	Reason string
}

// Error renders the conventional search-prefixed message.
func (e *Error) Error() string {
	if e.Field == "" {
		return "search: " + e.Reason
	}
	return fmt.Sprintf("search: %s %s", e.Field, e.Reason)
}

func searchErr(field, reason string, args ...any) *Error {
	if len(args) > 0 {
		reason = fmt.Sprintf(reason, args...)
	}
	return &Error{Field: field, Reason: reason}
}

// Predicate is one SLA-violation condition the search localizes. Margin
// maps a probe's metrics to a violation margin: positive means the
// predicate holds (the SLA is violated) and larger means worse, which is
// the ordering the seed hill-climb maximizes. NeedsAudit marks predicates
// whose margin reads audit-derived metric fields; their probes must run
// with event recording on, and manifest records without Audited set are
// re-run rather than trusted (their zeros mean "not measured").
type Predicate struct {
	Name       string
	NeedsAudit bool
	Margin     func(sweep.Metrics) float64
}

// Holds reports whether the predicate holds (the SLA is violated) at m.
func (p Predicate) Holds(m sweep.Metrics) bool { return p.Margin(m) > 0 }

// NeedsAuditAny reports whether any predicate requires audited metrics.
func NeedsAuditAny(preds []Predicate) bool {
	for _, p := range preds {
		if p.NeedsAudit {
			return true
		}
	}
	return false
}

// Axis is the continuous knob under search: a closed bracket [Min, Max]
// and the width below which a crossing bracket is considered localized.
type Axis struct {
	Name      string
	Min, Max  float64
	Tolerance float64 // 0 = (Max-Min)/64
}

// Runner executes one probe: the axis set to value, the replication seed
// set to seed, everything else the caller's base configuration.
type Runner func(ctx context.Context, value float64, seed int64) (sweep.Metrics, error)

// Config declares one frontier search.
type Config struct {
	Axis       Axis
	Predicates []Predicate

	// Seed is the base replication seed every bisection probe runs under
	// (default 1); the hill-climb derives candidate seeds from it with
	// sweep.ProbeSeed.
	Seed int64
	// ClimbSeeds is the number of candidate seeds the worst-case
	// hill-climb evaluates at each located frontier (default 4; negative
	// disables the climb).
	ClimbSeeds int
	// MaxProbes bounds the bisection probes spent per predicate (default
	// 64). A bracket still wider than the tolerance when the budget runs
	// out is reported as-is.
	MaxProbes int

	// Synth builds the fingerprinted off-grid cell for a probe. Probes
	// whose cells carry equal fingerprints are executed once per search
	// and resumed from the manifest across searches.
	Synth func(value float64, seed int64) (sweep.Cell, error)
	// ManifestPath, when non-empty, arms crash-safe resume for probes,
	// sharing the sweep manifest format.
	ManifestPath string
	// OnProbe, when set, observes every settled probe; cached reports
	// whether it was served from memory or the manifest instead of
	// executing.
	OnProbe func(cell sweep.Cell, m sweep.Metrics, cached bool)
}

// Row is one frontier artifact: the search result for one predicate along
// the configured axis. When Crossed, [LoValue, HiValue] is the final
// bracketing cell pair — the predicate disagrees between its endpoints —
// and Crossing is the midpoint estimate of the threshold. When the
// predicate agrees at both ends of the full bracket there is no crossing
// to localize and the endpoint probes are reported unchanged.
type Row struct {
	Predicate string `json:"predicate"`
	Axis      string `json:"axis"`
	Crossed   bool   `json:"crossed"`

	LoValue float64 `json:"loValue"`
	HiValue float64 `json:"hiValue"`
	// Crossing is the bracket midpoint once |Hi-Lo| <= tolerance (0 when
	// not Crossed).
	Crossing float64 `json:"crossing,omitempty"`

	LoCell    sweep.Cell    `json:"loCell"`
	HiCell    sweep.Cell    `json:"hiCell"`
	LoMetrics sweep.Metrics `json:"loMetrics"`
	HiMetrics sweep.Metrics `json:"hiMetrics"`
	LoHolds   bool          `json:"loHolds"`
	HiHolds   bool          `json:"hiHolds"`

	// Seed hill-climb outcome at the violating edge of the bracket: the
	// replication seed with the largest violation margin among the
	// examined candidates (zero-valued when not Crossed or the climb is
	// disabled).
	WorstSeed    int64         `json:"worstSeed,omitempty"`
	WorstMargin  float64       `json:"worstMargin,omitempty"`
	WorstMetrics sweep.Metrics `json:"worstMetrics,omitempty"`

	// Probes counts every evaluation this row requested, including ones
	// served from cache — identical across fresh and resumed runs of the
	// same search, keeping the artifact byte-stable.
	Probes int `json:"probes"`
}

// Run executes the search: one frontier row per predicate, in the order
// the predicates were declared. Probes are shared between predicates
// through the fingerprint cache, so a second predicate pays only for the
// bracket region the first did not visit.
func Run(ctx context.Context, cfg Config, run Runner) ([]Row, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if run == nil {
		return nil, searchErr("runner", "is nil")
	}
	if cfg.Synth == nil {
		return nil, searchErr("synth", "is nil")
	}
	ax := cfg.Axis
	if ax.Name == "" {
		return nil, searchErr("axis", "has no name")
	}
	if !(ax.Min < ax.Max) {
		return nil, searchErr("axis", "bracket [%g, %g] is empty", ax.Min, ax.Max)
	}
	if ax.Tolerance < 0 {
		return nil, searchErr("axis", "tolerance must not be negative")
	}
	if ax.Tolerance == 0 {
		ax.Tolerance = (ax.Max - ax.Min) / 64
	}
	if ax.Tolerance >= ax.Max-ax.Min {
		return nil, searchErr("axis", "tolerance %g must be below the bracket width %g", ax.Tolerance, ax.Max-ax.Min)
	}
	if len(cfg.Predicates) == 0 {
		return nil, searchErr("predicates", "need at least one")
	}
	seenPred := make(map[string]bool, len(cfg.Predicates))
	for i, p := range cfg.Predicates {
		if p.Name == "" {
			return nil, searchErr(fmt.Sprintf("predicates[%d]", i), "has no name")
		}
		if p.Margin == nil {
			return nil, searchErr(fmt.Sprintf("predicates[%d]", i), "has no margin function")
		}
		if seenPred[p.Name] {
			return nil, searchErr(fmt.Sprintf("predicates[%d]", i), "duplicates %q", p.Name)
		}
		seenPred[p.Name] = true
	}
	if cfg.MaxProbes < 0 {
		return nil, searchErr("maxProbes", "must not be negative")
	}

	p := &prober{
		run:       run,
		synth:     cfg.Synth,
		onProbe:   cfg.OnProbe,
		needAudit: NeedsAuditAny(cfg.Predicates),
		memo:      make(map[string]sweep.Metrics),
	}
	if cfg.ManifestPath != "" {
		man, err := sweep.OpenManifest(cfg.ManifestPath)
		if err != nil {
			return nil, err
		}
		defer man.Close()
		p.man = man
	}

	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	climb := cfg.ClimbSeeds
	if climb == 0 {
		climb = 4
	}
	maxProbes := cfg.MaxProbes
	if maxProbes == 0 {
		maxProbes = 64
	}

	rows := make([]Row, 0, len(cfg.Predicates))
	for _, pred := range cfg.Predicates {
		row, err := frontier(ctx, p, pred, ax, seed, climb, maxProbes)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// frontier bisects one predicate's crossing along the axis, then climbs
// seeds at the violating edge.
func frontier(ctx context.Context, p *prober, pred Predicate, ax Axis, seed int64, climb, maxProbes int) (Row, error) {
	row := Row{Predicate: pred.Name, Axis: ax.Name}
	probes := 0
	eval := func(v float64, s int64) (sweep.Cell, sweep.Metrics, error) {
		probes++
		return p.eval(ctx, v, s)
	}

	loCell, loM, err := eval(ax.Min, seed)
	if err != nil {
		return row, err
	}
	hiCell, hiM, err := eval(ax.Max, seed)
	if err != nil {
		return row, err
	}
	lo, hi := ax.Min, ax.Max
	loHolds, hiHolds := pred.Holds(loM), pred.Holds(hiM)

	// Bisection invariant: the predicate disagrees between lo and hi, so
	// a crossing lies strictly inside the bracket; every midpoint probe
	// replaces the endpoint it agrees with, preserving the disagreement
	// while halving the width.
	if loHolds != hiHolds {
		for hi-lo > ax.Tolerance && probes < maxProbes {
			mid := lo + (hi-lo)/2
			midCell, midM, err := eval(mid, seed)
			if err != nil {
				return row, err
			}
			if pred.Holds(midM) == loHolds {
				lo, loCell, loM = mid, midCell, midM
			} else {
				hi, hiCell, hiM = mid, midCell, midM
			}
		}
		row.Crossed = true
		row.Crossing = lo + (hi-lo)/2
	}
	row.LoValue, row.HiValue = lo, hi
	row.LoCell, row.HiCell = loCell, hiCell
	row.LoMetrics, row.HiMetrics = loM, hiM
	row.LoHolds, row.HiHolds = loHolds, hiHolds

	// Hill-climb over replication seeds at the violating edge of the
	// bracket: greedy accept-if-worse over deterministic candidates, so
	// the frontier row pins the nastiest seed observed, not just the
	// base seed's draw.
	if row.Crossed && climb > 0 {
		badV, badM := hi, hiM
		if loHolds {
			badV, badM = lo, loM
		}
		point := fmt.Sprintf("%s=%g", ax.Name, badV)
		worstSeed, worstMargin, worstM := seed, pred.Margin(badM), badM
		for k := 1; k <= climb; k++ {
			s := sweep.ProbeSeed(seed, point, k)
			_, m, err := eval(badV, s)
			if err != nil {
				return row, err
			}
			if mg := pred.Margin(m); mg > worstMargin {
				worstSeed, worstMargin, worstM = s, mg, m
			}
		}
		row.WorstSeed, row.WorstMargin, row.WorstMetrics = worstSeed, worstMargin, worstM
	}
	row.Probes = probes
	return row, nil
}

// prober settles probes through a three-level cache: the in-memory memo
// (probes shared between predicates), the resume manifest (probes
// completed by an earlier, killed or finished, search), and finally the
// runner. Audit-dependent searches refuse manifest records produced
// without event recording — their audit counters are unmeasured zeros.
type prober struct {
	run       Runner
	synth     func(float64, int64) (sweep.Cell, error)
	man       *sweep.Manifest
	memo      map[string]sweep.Metrics
	needAudit bool
	onProbe   func(sweep.Cell, sweep.Metrics, bool)
}

func (p *prober) eval(ctx context.Context, v float64, seed int64) (sweep.Cell, sweep.Metrics, error) {
	cell, err := p.synth(v, seed)
	if err != nil {
		return cell, sweep.Metrics{}, err
	}
	if fp := cell.Fingerprint; fp != "" {
		if m, ok := p.memo[fp]; ok {
			p.observe(cell, m, true)
			return cell, m, nil
		}
		if p.man != nil {
			if m, ok := p.man.Lookup(cell); ok && (!p.needAudit || m.Audited) {
				p.memo[fp] = m
				p.observe(cell, m, true)
				return cell, m, nil
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return cell, sweep.Metrics{}, err
	}
	m, err := p.run(ctx, v, seed)
	if err != nil {
		return cell, sweep.Metrics{}, err
	}
	if cell.Fingerprint != "" {
		p.memo[cell.Fingerprint] = m
		if p.man != nil {
			if err := p.man.Append(cell, m); err != nil {
				return cell, m, err
			}
		}
	}
	p.observe(cell, m, false)
	return cell, m, nil
}

func (p *prober) observe(c sweep.Cell, m sweep.Metrics, cached bool) {
	if p.onProbe != nil {
		p.onProbe(c, m, cached)
	}
}
