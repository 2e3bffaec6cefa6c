package sweep

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

func TestParseSpecValid(t *testing.T) {
	data := []byte(`{
		"schedulers": ["Greedy", "Op"],
		"buckets": ["small", "large"],
		"profiles": [{"name": "paper"}, {"name": "highvar", "jitterCV": 0.5}],
		"faults": [{"name": "none"}, {"name": "revoke", "ecRevocationMTBF": 400}],
		"seeds": [1, 2, 3],
		"batches": 2,
		"meanJobsPerBatch": 5
	}`)
	spec, err := ParseSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	cells := spec.Cells()
	if len(cells) != 2*2*2*2*3 {
		t.Fatalf("cells = %d, want 48", len(cells))
	}
	if spec.Batches != 2 || spec.MeanJobsPerBatch != 5 {
		t.Fatalf("scalars lost: %+v", spec)
	}
}

func TestParseSpecRejections(t *testing.T) {
	cases := []struct {
		name  string
		data  string
		field string // "" means any
	}{
		{"malformed json", `{"schedulers": [`, ""},
		{"unknown field", `{"schedluers": ["Op"]}`, ""},
		{"trailing data", `{"batches": 1} {"batches": 2}`, ""},
		{"negative seedCount", `{"seedCount": -1}`, "seedCount"},
		{"huge seedCount", `{"seedCount": 100000000}`, "seedCount"},
		{"negative batches", `{"batches": -2}`, "batches"},
		{"blank scheduler", `{"schedulers": [" "]}`, "schedulers[0]"},
		{"blank profile name", `{"profiles": [{"name": ""}]}`, "profiles[0].name"},
		{"duplicate profile", `{"profiles": [{"name": "a"}, {"name": "a"}]}`, "profiles[1].name"},
		{"duplicate fault", `{"faults": [{"name": "f"}, {"name": "f"}]}`, "faults[1].name"},
		{"bad amplitude", `{"profiles": [{"name": "p", "diurnalAmplitude": 1.5}]}`, "profiles[0].diurnalAmplitude"},
		{"bad throttle", `{"profiles": [{"name": "p", "outageThrottle": 1}]}`, "profiles[0].outageThrottle"},
		{"negative fault mtbf", `{"faults": [{"name": "f", "icCrashMTBF": -1}]}`, "faults[0].icCrashMTBF"},
		{"grid too large", `{"schedulers": ["a","b","c","d","e"], "seedCount": 99999}`, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseSpec([]byte(tc.data))
			if err == nil {
				t.Fatal("spec accepted")
			}
			var se *SpecError
			if !errors.As(err, &se) {
				t.Fatalf("error %T is not a *SpecError: %v", err, err)
			}
			if !strings.HasPrefix(err.Error(), "sweep: invalid spec") {
				t.Fatalf("error not sweep-prefixed: %q", err)
			}
			if tc.field != "" && se.Field != tc.field {
				t.Fatalf("Field = %q, want %q", se.Field, tc.field)
			}
		})
	}
}

func TestNormalizeDefaultsAndIdempotence(t *testing.T) {
	n := Spec{}.Normalize()
	if !reflect.DeepEqual(n, n.Normalize()) {
		t.Fatal("Normalize is not idempotent")
	}
	if len(n.Schedulers) != 1 || len(n.Buckets) != 1 || len(n.Profiles) != 1 ||
		len(n.Faults) != 1 || len(n.Seeds) != 1 {
		t.Fatalf("zero spec did not normalize to one cell per axis: %+v", n)
	}
	if n.Seeds[0] != 1 {
		t.Fatalf("default seed = %d, want 1", n.Seeds[0])
	}
	if cells := (Spec{}).Cells(); len(cells) != 1 {
		t.Fatalf("zero spec expands to %d cells, want 1", len(cells))
	}
}

func TestCellsExpansionOrderAndSeeds(t *testing.T) {
	spec := Spec{
		Schedulers: []string{"Greedy", "Op"},
		Buckets:    []string{"small", "large"},
		Seeds:      []int64{10, 20},
	}
	cells := spec.Cells()
	if len(cells) != 8 {
		t.Fatalf("cells = %d", len(cells))
	}
	// Row-major: scheduler outermost, seed innermost.
	wantSched := []string{"Greedy", "Greedy", "Greedy", "Greedy", "Op", "Op", "Op", "Op"}
	wantBucket := []string{"small", "small", "large", "large", "small", "small", "large", "large"}
	wantSeed := []int64{10, 20, 10, 20, 10, 20, 10, 20}
	for i, c := range cells {
		if c.Index != i {
			t.Fatalf("cell %d has Index %d", i, c.Index)
		}
		if c.Scheduler != wantSched[i] || c.Bucket != wantBucket[i] || c.Seed != wantSeed[i] {
			t.Fatalf("cell %d = %s/%s seed %d, want %s/%s seed %d",
				i, c.Scheduler, c.Bucket, c.Seed, wantSched[i], wantBucket[i], wantSeed[i])
		}
		// Derived seeds depend on the replication seed only: cells sharing a
		// seed share the workload and network realization across schedulers.
		if c.WorkloadSeed != DeriveSeed(c.Seed, "workload") ||
			c.NetSeed != DeriveSeed(c.Seed, "net") ||
			c.FaultSeed != DeriveSeed(c.Seed, "fault") {
			t.Fatalf("cell %d derived seeds inconsistent: %+v", i, c)
		}
	}
	// Expansion is deterministic.
	if !reflect.DeepEqual(cells, spec.Cells()) {
		t.Fatal("Cells is not deterministic")
	}
}

func TestDeriveSeed(t *testing.T) {
	if DeriveSeed(1, "workload") == DeriveSeed(1, "net") {
		t.Fatal("different salts derive the same seed")
	}
	if DeriveSeed(1, "net") == DeriveSeed(2, "net") {
		t.Fatal("different seeds derive the same stream seed")
	}
	if DeriveSeed(5, "fault") != DeriveSeed(5, "fault") {
		t.Fatal("DeriveSeed is not deterministic")
	}
	for _, s := range []int64{-3, -1, 0, 1, 42, 1 << 40} {
		if DeriveSeed(s, "x") < 0 {
			t.Fatalf("DeriveSeed(%d) is negative", s)
		}
	}
}

func TestSpecLookups(t *testing.T) {
	spec := Spec{
		Profiles: []Profile{{Name: "a", JitterCV: 0.5}},
		Faults:   []FaultSet{{Name: "f", ICCrashMTBF: 100}},
	}
	if p, ok := spec.Profile("a"); !ok || p.JitterCV != 0.5 {
		t.Fatalf("Profile lookup failed: %+v %v", p, ok)
	}
	if _, ok := spec.Profile("missing"); ok {
		t.Fatal("found a profile that does not exist")
	}
	if f, ok := spec.FaultSet("f"); !ok || f.ICCrashMTBF != 100 {
		t.Fatalf("FaultSet lookup failed: %+v %v", f, ok)
	}
	if !spec.Faults[0].Enabled() {
		t.Fatal("armed fault set reports disabled")
	}
	if (FaultSet{Name: "none"}).Enabled() {
		t.Fatal("zero fault set reports enabled")
	}
}

// TestSpecLookupsMatchNormalize checks the axis lookups against lookups in
// the normalized spec, on empty and populated axes with default, present
// and unknown names, and pins them allocation-free: every sweep cell makes
// them, and normalizing re-expands the whole seed list.
func TestSpecLookupsMatchNormalize(t *testing.T) {
	specs := []Spec{
		{SeedCount: 100},
		{
			Profiles: []Profile{{Name: "a", JitterCV: 0.5}, {Name: "default", UploadMeanBW: 1}},
			Faults:   []FaultSet{{Name: "f", ICCrashMTBF: 100}},
			Costs:    []CostSet{{Name: "c", OnDemandRate: 2}, {Name: "free", SpotRate: 1}},
			Seeds:    []int64{4, 5},
		},
	}
	names := []string{"", "default", "none", "free", "a", "f", "c", "missing"}
	for i, spec := range specs {
		norm := spec.Normalize()
		for _, name := range names {
			var wantP Profile
			var wantF FaultSet
			var wantC CostSet
			okP, okF, okC := false, false, false
			for _, p := range norm.Profiles {
				if !okP && p.Name == name {
					wantP, okP = p, true
				}
			}
			for _, f := range norm.Faults {
				if !okF && f.Name == name {
					wantF, okF = f, true
				}
			}
			for _, c := range norm.Costs {
				if !okC && c.Name == name {
					wantC, okC = c, true
				}
			}
			if p, ok := spec.Profile(name); p != wantP || ok != okP {
				t.Errorf("spec %d: Profile(%q) = %+v,%v, normalized %+v,%v", i, name, p, ok, wantP, okP)
			}
			if f, ok := spec.FaultSet(name); f != wantF || ok != okF {
				t.Errorf("spec %d: FaultSet(%q) = %+v,%v, normalized %+v,%v", i, name, f, ok, wantF, okF)
			}
			if c, ok := spec.CostSet(name); c != wantC || ok != okC {
				t.Errorf("spec %d: CostSet(%q) = %+v,%v, normalized %+v,%v", i, name, c, ok, wantC, okC)
			}
		}
		for lookup, fn := range map[string]func(){
			"Profile":  func() { spec.Profile("default") },
			"FaultSet": func() { spec.FaultSet("none") },
			"CostSet":  func() { spec.CostSet("free") },
		} {
			if allocs := testing.AllocsPerRun(20, fn); allocs != 0 {
				t.Errorf("spec %d: %s allocates %v objects, want 0", i, lookup, allocs)
			}
		}
	}
}

func TestCostAxis(t *testing.T) {
	data := []byte(`{
		"schedulers": ["Op"],
		"costs": [{"name": "free"}, {"name": "ondemand", "onDemandRate": 0.10, "budget": 0.5}]
	}`)
	spec, err := ParseSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	cells := spec.Cells()
	if len(cells) != 2 {
		t.Fatalf("cells = %d, want 2", len(cells))
	}
	if cells[0].Cost != "free" || cells[1].Cost != "ondemand" {
		t.Fatalf("cost axis order: %q, %q", cells[0].Cost, cells[1].Cost)
	}
	cs, ok := spec.CostSet("ondemand")
	if !ok || cs.OnDemandRate != 0.10 || cs.Budget != 0.5 {
		t.Fatalf("CostSet lookup: %+v ok=%v", cs, ok)
	}
	if !cs.Enabled() {
		t.Fatal("priced cost set reports disabled")
	}
	free, _ := spec.CostSet("free")
	if free.Enabled() {
		t.Fatal("free cost set reports enabled")
	}
	if _, ok := spec.CostSet("nope"); ok {
		t.Fatal("unknown cost set resolved")
	}

	// The default axis is a single free cost set.
	n := Spec{}.Normalize()
	if len(n.Costs) != 1 || n.Costs[0].Name != "free" || n.Costs[0].Enabled() {
		t.Fatalf("default cost axis: %+v", n.Costs)
	}
}

func TestCostAxisRejections(t *testing.T) {
	cases := []struct {
		name  string
		data  string
		field string
	}{
		{"blank cost name", `{"costs": [{"name": ""}]}`, "costs[0].name"},
		{"duplicate cost", `{"costs": [{"name": "c"}, {"name": "c"}]}`, "costs[1].name"},
		{"negative rate", `{"costs": [{"name": "c", "onDemandRate": -1}]}`, "costs[0].onDemandRate"},
		{"negative spot", `{"costs": [{"name": "c", "spotRate": -1}]}`, "costs[0].spotRate"},
		{"negative billing", `{"costs": [{"name": "c", "billingIntervalSec": -60}]}`, "costs[0].billingIntervalSec"},
		{"negative budget", `{"costs": [{"name": "c", "budget": -5}]}`, "costs[0].budget"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseSpec([]byte(tc.data))
			var se *SpecError
			if !errors.As(err, &se) || se.Field != tc.field {
				t.Fatalf("err = %v, want SpecError on %s", err, tc.field)
			}
		})
	}
}

// TestDeriveSeedGolden pins the exact seed-derivation outputs. DeriveSeed
// values are baked into every manifest fingerprint's run realization and
// into the search's probe identity: silently changing the mixer would make
// every recorded sweep unresumable and every frontier artifact shift, so a
// change here must be deliberate and break this table loudly.
func TestDeriveSeedGolden(t *testing.T) {
	golden := []struct {
		seed int64
		salt string
		want int64
	}{
		{1, "workload", 1314103221247201294},
		{1, "net", 8334685008962847118},
		{1, "fault", 8421117494916619842},
		{2, "workload", 7836430203516330897},
		{7, "net", 7436134072523080008},
		{0, "workload", 8273439481354257625},
		{-1, "net", 1489596048118218832},
		{1 << 40, "fault", 3128033247601049230},
	}
	for _, g := range golden {
		if got := DeriveSeed(g.seed, g.salt); got != g.want {
			t.Errorf("DeriveSeed(%d, %q) = %d, want %d", g.seed, g.salt, got, g.want)
		}
	}
}

func TestProbeSeed(t *testing.T) {
	if ProbeSeed(7, "jitter=1.5", 0) != 7 || ProbeSeed(7, "jitter=1.5", -1) != 7 {
		t.Fatal("k <= 0 must return the base seed unchanged")
	}
	golden := []struct {
		k    int
		want int64
	}{
		{1, 960547425660528459},
		{2, 7781530118561741262},
		{3, 8545518763213278754},
	}
	seen := map[int64]bool{7: true}
	for _, g := range golden {
		got := ProbeSeed(7, "jitter=1.5", g.k)
		if got != g.want {
			t.Errorf("ProbeSeed(7, jitter=1.5, %d) = %d, want %d", g.k, got, g.want)
		}
		if seen[got] {
			t.Errorf("candidate %d collides with an earlier one", g.k)
		}
		seen[got] = true
	}
	// Different frontier points examine independent candidate ladders.
	if ProbeSeed(7, "jitter=1.5", 1) == ProbeSeed(7, "jitter=2", 1) {
		t.Fatal("distinct points share candidate seeds")
	}
}

func TestSynthCell(t *testing.T) {
	c := SynthCell("Op", "uniform", "jitter", 1.5, 9)
	if c.Index != -1 {
		t.Fatalf("synthetic cell index = %d, want -1 (off-grid marker)", c.Index)
	}
	if c.Scheduler != "Op" || c.Bucket != "uniform" || c.Seed != 9 {
		t.Fatalf("identity fields lost: %+v", c)
	}
	if c.Axis != "jitter" || c.Value != 1.5 {
		t.Fatalf("probe point lost: %+v", c)
	}
	// Stream seeds must match what Cells derives for the same replication
	// seed — a probe and a grid cell share realizations.
	if c.WorkloadSeed != DeriveSeed(9, "workload") ||
		c.NetSeed != DeriveSeed(9, "net") ||
		c.FaultSeed != DeriveSeed(9, "fault") {
		t.Fatalf("stream seeds diverge from grid derivation: %+v", c)
	}
	if c.Fingerprint != "" {
		t.Fatal("SynthCell must leave the fingerprint for the caller to stamp")
	}
}
