// Package sweep is the concurrent parameter-sweep engine behind the public
// cloudburst.Sweep API and the internal/experiments drivers: it expands a
// declarative grid specification (schedulers × buckets × network profiles ×
// fault sets × cost sets × replication seeds) into cells with deterministically derived
// per-cell seeds, executes the cells on a GOMAXPROCS-bounded worker pool
// with per-cell panic isolation and deterministic result order, dedups
// identical cells through their configuration fingerprints, streams results
// incrementally to JSONL/CSV sinks, and keeps a crash-safe resume manifest
// so an interrupted sweep restarts from the last completed cell.
//
// The package is deliberately ignorant of the public Options type (the root
// package imports sweep, not the other way around): callers plan cells,
// stamp each with a fingerprint, and supply a Runner that turns a cell into
// a Metrics vector. The root package wires Runner to cloudburst.RunContext;
// internal/experiments wires the generic Exec core to engine.RunContext.
package sweep

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"strings"
)

// MaxCells bounds the grid expansion: a spec whose axis product exceeds
// this is rejected at validation time rather than exploding memory.
const MaxCells = 100000

// Profile is one named network regime of the sweep grid. The zero value
// (aside from Name) means "the run's defaults" — a paper-testbed diurnal
// pipe; every non-zero field overrides the corresponding option.
type Profile struct {
	Name               string  `json:"name"`
	UploadMeanBW       float64 `json:"uploadMeanBW,omitempty"`   // bytes/sec
	DownloadMeanBW     float64 `json:"downloadMeanBW,omitempty"` // bytes/sec
	DiurnalAmplitude   float64 `json:"diurnalAmplitude,omitempty"`
	JitterCV           float64 `json:"jitterCV,omitempty"`
	OutageMTBF         float64 `json:"outageMTBF,omitempty"`
	OutageMeanDuration float64 `json:"outageMeanDuration,omitempty"`
	OutageThrottle     float64 `json:"outageThrottle,omitempty"`
}

// FaultSet is one named fault-injection regime of the grid. The zero value
// (aside from Name) disables every fault source. The fault RNG seed is not
// part of the set: it is derived per cell from the replication seed.
type FaultSet struct {
	Name                 string  `json:"name"`
	ECRevocationMTBF     float64 `json:"ecRevocationMTBF,omitempty"`
	ECRevocationWarning  float64 `json:"ecRevocationWarning,omitempty"`
	ICCrashMTBF          float64 `json:"icCrashMTBF,omitempty"`
	ICCrashMTTR          float64 `json:"icCrashMTTR,omitempty"`
	TransferStallMTBF    float64 `json:"transferStallMTBF,omitempty"`
	TransferStallTimeout float64 `json:"transferStallTimeout,omitempty"`
	MaxRetries           int     `json:"maxRetries,omitempty"`
	RetryBackoff         float64 `json:"retryBackoff,omitempty"`
}

// Enabled reports whether any fault source is armed.
func (f FaultSet) Enabled() bool {
	return f.ECRevocationMTBF > 0 || f.ICCrashMTBF > 0 || f.TransferStallMTBF > 0
}

// CostSet is one named pricing regime of the grid. The zero value (aside
// from Name) keeps cost accounting off; any armed field prices the run.
type CostSet struct {
	Name               string  `json:"name"`
	OnDemandRate       float64 `json:"onDemandRate,omitempty"` // $/machine-hour
	SpotRate           float64 `json:"spotRate,omitempty"`
	BillingIntervalSec float64 `json:"billingIntervalSec,omitempty"`
	Budget             float64 `json:"budget,omitempty"` // 0 = unlimited
}

// Enabled reports whether the pricing model is armed.
func (c CostSet) Enabled() bool {
	return c.OnDemandRate > 0 || c.SpotRate > 0 || c.BillingIntervalSec > 0 || c.Budget > 0
}

// Spec declares a sweep grid. The cross product of the six axes —
// Schedulers × Buckets × Profiles × Faults × Costs × seeds — becomes the
// cell list; the remaining fields are scalar knobs shared by every cell.
// Empty axes normalize to a single default element, so the zero Spec is one
// cell of the paper testbed.
type Spec struct {
	// Axes.
	Schedulers []string   `json:"schedulers,omitempty"`
	Buckets    []string   `json:"buckets,omitempty"`
	Profiles   []Profile  `json:"profiles,omitempty"`
	Faults     []FaultSet `json:"faults,omitempty"`
	Costs      []CostSet  `json:"costs,omitempty"`
	// Shards lists shard counts for the shared-state scheduling axis; 1 is
	// the monolithic path. Empty normalizes to [1].
	Shards []int `json:"shards,omitempty"`
	// Seeds lists the replication seeds explicitly; when empty, SeedCount
	// seeds BaseSeed, BaseSeed+1, … are used (default one seed, base 1).
	Seeds     []int64 `json:"seeds,omitempty"`
	SeedCount int     `json:"seedCount,omitempty"`
	BaseSeed  int64   `json:"baseSeed,omitempty"`

	// Shared scalar knobs (zero = the run's documented default).
	Batches          int     `json:"batches,omitempty"`
	MeanJobsPerBatch float64 `json:"meanJobsPerBatch,omitempty"`
	BatchIntervalSec float64 `json:"batchIntervalSec,omitempty"`
	ICMachines       int     `json:"icMachines,omitempty"`
	ECMachines       int     `json:"ecMachines,omitempty"`
	SlackMarginSec   float64 `json:"slackMarginSec,omitempty"`
	Rescheduling     bool    `json:"rescheduling,omitempty"`
	OOToleranceJobs  int     `json:"ooToleranceJobs,omitempty"`
	OOSampleInterval float64 `json:"ooSampleInterval,omitempty"`
}

// SpecError reports a structurally invalid sweep specification. Every
// rejection from ParseSpec and Spec.Validate unwraps to this type.
type SpecError struct {
	Field  string // offending field, e.g. "seedCount" or "profiles[1].name"
	Reason string
}

// Error renders the conventional sweep-prefixed message.
func (e *SpecError) Error() string {
	if e.Field == "" {
		return fmt.Sprintf("sweep: invalid spec: %s", e.Reason)
	}
	return fmt.Sprintf("sweep: invalid spec: %s %s", e.Field, e.Reason)
}

func specErr(field, reason string, args ...any) *SpecError {
	if len(args) > 0 {
		reason = fmt.Sprintf(reason, args...)
	}
	return &SpecError{Field: field, Reason: reason}
}

// ParseSpec decodes a JSON grid specification and validates it. Unknown
// fields, malformed JSON and out-of-domain values are all rejected with a
// typed *SpecError — the parser never panics, whatever the input.
func ParseSpec(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, specErr("", "%v", err)
	}
	// Trailing garbage after the spec object is a malformed file, not an
	// extended grid.
	if dec.More() {
		return nil, specErr("", "trailing data after the spec object")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// The single elements Normalize gives the empty profile, fault and cost
// axes.
var (
	defaultProfile = Profile{Name: "default"}
	defaultFaults  = FaultSet{Name: "none"}
	defaultCosts   = CostSet{Name: "free"}
)

// Normalize returns a copy with every empty axis replaced by its single
// default element: the Op scheduler, the uniform bucket, an unnamed default
// network profile, no faults, and one seed (BaseSeed, default 1). It is
// idempotent, and Cells applies it automatically.
func (s Spec) Normalize() Spec {
	if len(s.Schedulers) == 0 {
		s.Schedulers = []string{"Op"}
	}
	if len(s.Buckets) == 0 {
		s.Buckets = []string{"uniform"}
	}
	if len(s.Profiles) == 0 {
		s.Profiles = []Profile{defaultProfile}
	}
	if len(s.Faults) == 0 {
		s.Faults = []FaultSet{defaultFaults}
	}
	if len(s.Costs) == 0 {
		s.Costs = []CostSet{defaultCosts}
	}
	if len(s.Shards) == 0 {
		s.Shards = []int{1}
	}
	if len(s.Seeds) == 0 {
		if s.BaseSeed == 0 {
			s.BaseSeed = 1
		}
		if s.SeedCount <= 0 {
			s.SeedCount = 1
		}
		// Clamp the expansion defensively: Validate rejects counts beyond
		// MaxCells, but Normalize must stay allocation-safe on raw input.
		if s.SeedCount > MaxCells {
			s.SeedCount = MaxCells
		}
		seeds := make([]int64, s.SeedCount)
		for i := range seeds {
			seeds[i] = s.BaseSeed + int64(i)
		}
		s.Seeds = seeds
	}
	s.SeedCount = len(s.Seeds)
	return s
}

// Validate rejects structurally broken grids with a typed *SpecError:
// negative counts, duplicate or blank axis names, and expansions beyond
// MaxCells. Scheduler and bucket names are not resolved here — the runner's
// option validation owns that vocabulary and reports unknown names with its
// own typed errors.
func (s Spec) Validate() error {
	switch {
	case s.SeedCount < 0:
		return specErr("seedCount", "must not be negative")
	case s.SeedCount > MaxCells:
		return specErr("seedCount", "exceeds the %d-cell grid bound", MaxCells)
	case len(s.Seeds) > MaxCells:
		return specErr("seeds", "exceeds the %d-cell grid bound", MaxCells)
	case s.Batches < 0:
		return specErr("batches", "must not be negative")
	case s.MeanJobsPerBatch < 0:
		return specErr("meanJobsPerBatch", "must not be negative")
	case s.BatchIntervalSec < 0:
		return specErr("batchIntervalSec", "must not be negative")
	case s.ICMachines < 0:
		return specErr("icMachines", "must not be negative")
	case s.ECMachines < 0:
		return specErr("ecMachines", "must not be negative")
	case s.OOToleranceJobs < 0:
		return specErr("ooToleranceJobs", "must not be negative")
	case s.OOSampleInterval < 0:
		return specErr("ooSampleInterval", "must not be negative")
	}
	for i, name := range s.Schedulers {
		if strings.TrimSpace(name) == "" {
			return specErr(fmt.Sprintf("schedulers[%d]", i), "is blank")
		}
	}
	for i, name := range s.Buckets {
		if strings.TrimSpace(name) == "" {
			return specErr(fmt.Sprintf("buckets[%d]", i), "is blank")
		}
	}
	// Profile and fault-set names key the per-cell lookup, so they must be
	// unique within their axis (the default name fills blanks at Normalize
	// time only when the axis is empty — explicit entries need names).
	seen := map[string]bool{}
	for i, p := range s.Profiles {
		if p.Name == "" {
			return specErr(fmt.Sprintf("profiles[%d].name", i), "is blank")
		}
		if seen[p.Name] {
			return specErr(fmt.Sprintf("profiles[%d].name", i), "duplicates %q", p.Name)
		}
		seen[p.Name] = true
		if err := p.validate(fmt.Sprintf("profiles[%d]", i)); err != nil {
			return err
		}
	}
	seen = map[string]bool{}
	for i, f := range s.Faults {
		if f.Name == "" {
			return specErr(fmt.Sprintf("faults[%d].name", i), "is blank")
		}
		if seen[f.Name] {
			return specErr(fmt.Sprintf("faults[%d].name", i), "duplicates %q", f.Name)
		}
		seen[f.Name] = true
		if err := f.validate(fmt.Sprintf("faults[%d]", i)); err != nil {
			return err
		}
	}
	for i, n := range s.Shards {
		if n < 1 || n > 64 {
			return specErr(fmt.Sprintf("shards[%d]", i), "out of [1,64]")
		}
	}
	seen = map[string]bool{}
	for i, c := range s.Costs {
		if c.Name == "" {
			return specErr(fmt.Sprintf("costs[%d].name", i), "is blank")
		}
		if seen[c.Name] {
			return specErr(fmt.Sprintf("costs[%d].name", i), "duplicates %q", c.Name)
		}
		seen[c.Name] = true
		if err := c.validate(fmt.Sprintf("costs[%d]", i)); err != nil {
			return err
		}
	}
	n := s.Normalize()
	cells := int64(1)
	for _, axis := range []int{
		len(n.Schedulers), len(n.Buckets), len(n.Profiles), len(n.Faults), len(n.Costs), len(n.Shards), len(n.Seeds),
	} {
		cells *= int64(axis)
		if cells > MaxCells {
			return specErr("", "grid expands to more than %d cells", MaxCells)
		}
	}
	return nil
}

func (p Profile) validate(path string) error {
	switch {
	case p.UploadMeanBW < 0:
		return specErr(path+".uploadMeanBW", "must not be negative")
	case p.DownloadMeanBW < 0:
		return specErr(path+".downloadMeanBW", "must not be negative")
	case p.DiurnalAmplitude < 0 || p.DiurnalAmplitude > 1:
		return specErr(path+".diurnalAmplitude", "out of [0,1]")
	case p.JitterCV < 0:
		return specErr(path+".jitterCV", "must not be negative")
	case p.OutageMTBF < 0:
		return specErr(path+".outageMTBF", "must not be negative")
	case p.OutageMeanDuration < 0:
		return specErr(path+".outageMeanDuration", "must not be negative")
	case p.OutageThrottle < 0 || p.OutageThrottle >= 1:
		return specErr(path+".outageThrottle", "out of [0,1)")
	}
	return nil
}

func (f FaultSet) validate(path string) error {
	switch {
	case f.ECRevocationMTBF < 0:
		return specErr(path+".ecRevocationMTBF", "must not be negative")
	case f.ECRevocationWarning < 0:
		return specErr(path+".ecRevocationWarning", "must not be negative")
	case f.ICCrashMTBF < 0:
		return specErr(path+".icCrashMTBF", "must not be negative")
	case f.ICCrashMTTR < 0:
		return specErr(path+".icCrashMTTR", "must not be negative")
	case f.TransferStallMTBF < 0:
		return specErr(path+".transferStallMTBF", "must not be negative")
	case f.TransferStallTimeout < 0:
		return specErr(path+".transferStallTimeout", "must not be negative")
	case f.RetryBackoff < 0:
		return specErr(path+".retryBackoff", "must not be negative")
	}
	return nil
}

func (c CostSet) validate(path string) error {
	switch {
	case c.OnDemandRate < 0:
		return specErr(path+".onDemandRate", "must not be negative")
	case c.SpotRate < 0:
		return specErr(path+".spotRate", "must not be negative")
	case c.BillingIntervalSec < 0:
		return specErr(path+".billingIntervalSec", "must not be negative")
	case c.Budget < 0:
		return specErr(path+".budget", "must not be negative")
	}
	return nil
}

// Profile returns the named profile of the normalized spec. It reads the
// axis as given, or Normalize's default when it is empty, without
// normalizing the whole spec: every sweep cell looks its axes up.
func (s Spec) Profile(name string) (Profile, bool) {
	profiles := s.Profiles
	if len(profiles) == 0 {
		profiles = []Profile{defaultProfile}
	}
	for _, p := range profiles {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}

// FaultSet returns the named fault set of the normalized spec, read as
// Profile reads its axis.
func (s Spec) FaultSet(name string) (FaultSet, bool) {
	faults := s.Faults
	if len(faults) == 0 {
		faults = []FaultSet{defaultFaults}
	}
	for _, f := range faults {
		if f.Name == name {
			return f, true
		}
	}
	return FaultSet{}, false
}

// CostSet returns the named pricing regime of the normalized spec, read as
// Profile reads its axis.
func (s Spec) CostSet(name string) (CostSet, bool) {
	costs := s.Costs
	if len(costs) == 0 {
		costs = []CostSet{defaultCosts}
	}
	for _, c := range costs {
		if c.Name == name {
			return c, true
		}
	}
	return CostSet{}, false
}

// Cell is one grid point: the axis values that select its configuration,
// the three derived simulation seeds, and the caller-stamped configuration
// fingerprint used for dedup and the resume manifest.
type Cell struct {
	Index     int    `json:"index"`
	Scheduler string `json:"scheduler"`
	Bucket    string `json:"bucket"`
	Profile   string `json:"profile"`
	Fault     string `json:"fault"`
	Cost      string `json:"cost,omitempty"`
	// Shards is the cell's shard count on the shared-state scheduling
	// axis; 0 (pre-sharding manifests) and 1 both mean monolithic.
	Shards int   `json:"shards,omitempty"`
	Seed   int64 `json:"seed"`

	// Derived seeds, computed from Seed alone (not from the other axes), so
	// cells sharing a replication seed run the same workload and network
	// realization — the pairing the metamorphic comparisons rely on.
	WorkloadSeed int64 `json:"workloadSeed"`
	NetSeed      int64 `json:"netSeed"`
	FaultSeed    int64 `json:"faultSeed"`

	// Axis and Value identify an off-grid probe synthesized by the frontier
	// search: Axis names the continuous knob under search and Value the
	// probed point on it. Grid-expanded cells leave both zero.
	Axis  string  `json:"axis,omitempty"`
	Value float64 `json:"value,omitempty"`

	// Fingerprint canonically identifies the cell's full effective
	// configuration; cells with equal fingerprints produce bit-identical
	// results and are executed once. Empty means "assume unique".
	Fingerprint string `json:"fingerprint,omitempty"`
}

// SynthCell synthesizes an off-grid cell for an adaptive search probe:
// Index -1 marks it as outside any grid expansion, Axis/Value record the
// probed point, and the three stream seeds are derived from the replication
// seed exactly as Cells does — a probe and a grid cell with the same seed
// share workload, network and fault realizations. The caller stamps the
// Fingerprint once it has built the probe's effective configuration.
func SynthCell(scheduler, bucket, axis string, value float64, seed int64) Cell {
	return Cell{
		Index:        -1,
		Scheduler:    scheduler,
		Bucket:       bucket,
		Seed:         seed,
		WorkloadSeed: DeriveSeed(seed, "workload"),
		NetSeed:      DeriveSeed(seed, "net"),
		FaultSeed:    DeriveSeed(seed, "fault"),
		Axis:         axis,
		Value:        value,
	}
}

// Cells expands the normalized grid in deterministic row-major order:
// scheduler (outermost) → bucket → profile → fault set → cost set → shard
// count → seed (innermost). Fingerprints are left empty — the caller stamps
// them once it has built each cell's effective configuration.
func (s Spec) Cells() []Cell {
	n := s.Normalize()
	if err := n.Validate(); err != nil {
		return nil
	}
	out := make([]Cell, 0, len(n.Schedulers)*len(n.Buckets)*len(n.Profiles)*len(n.Faults)*len(n.Costs)*len(n.Shards)*len(n.Seeds))
	for _, sched := range n.Schedulers {
		for _, bucket := range n.Buckets {
			for _, prof := range n.Profiles {
				for _, fault := range n.Faults {
					for _, costSet := range n.Costs {
						for _, shards := range n.Shards {
							for _, seed := range n.Seeds {
								out = append(out, Cell{
									Index:        len(out),
									Scheduler:    sched,
									Bucket:       bucket,
									Profile:      prof.Name,
									Fault:        fault.Name,
									Cost:         costSet.Name,
									Shards:       shards,
									Seed:         seed,
									WorkloadSeed: DeriveSeed(seed, "workload"),
									NetSeed:      DeriveSeed(seed, "net"),
									FaultSeed:    DeriveSeed(seed, "fault"),
								})
							}
						}
					}
				}
			}
		}
	}
	return out
}

// DeriveSeed deterministically derives an independent, non-negative stream
// seed from a replication seed and a salt naming the stream ("workload",
// "net", "fault"). The salt is hashed with FNV-1a and the combination is
// finalized with the splitmix64 mixer, so nearby replication seeds do not
// produce correlated derived seeds.
func DeriveSeed(seed int64, salt string) int64 {
	h := fnv.New64a()
	h.Write([]byte(salt))
	x := uint64(seed) ^ h.Sum64()
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x &^ (1 << 63))
}

// ProbeSeed derives the k-th candidate replication seed for worst-case
// probing at a named frontier point (the hill-climb over seeds). k = 0
// returns the base seed itself; successive k values walk deterministic,
// point-specific seeds, so climbing the same point twice examines the same
// candidates while different points (different salts) examine independent
// ones.
func ProbeSeed(base int64, point string, k int) int64 {
	if k <= 0 {
		return base
	}
	return DeriveSeed(base+int64(k), "probe:"+point)
}

// IsSpecError reports whether err unwraps to a *SpecError.
func IsSpecError(err error) bool {
	var se *SpecError
	return errors.As(err, &se)
}
