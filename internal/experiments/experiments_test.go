package experiments

import (
	"strconv"
	"strings"
	"testing"

	"cloudburst/internal/sched"
	"cloudburst/internal/workload"
)

func cell(t *Table, row, col int) string { return t.Rows[row][col] }

func cellF(tb testing.TB, t *Table, row, col int) float64 {
	tb.Helper()
	s := strings.TrimSuffix(strings.TrimSuffix(cell(t, row, col), "%"), "s")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		tb.Fatalf("cell (%d,%d) = %q not numeric: %v", row, col, cell(t, row, col), err)
	}
	return v
}

func TestTableRendering(t *testing.T) {
	tab := &Table{Title: "T", Header: []string{"a", "bb"}}
	tab.AddRow("1", "2")
	tab.AddNote("hello %d", 5)
	s := tab.String()
	for _, want := range []string{"T\n", "a", "bb", "note: hello 5"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, s)
		}
	}
}

func TestDefaultReplications(t *testing.T) {
	reps := DefaultReplications(10, 3)
	if len(reps) != 3 {
		t.Fatalf("len = %d", len(reps))
	}
	if reps[0].WorkloadSeed == reps[1].WorkloadSeed {
		t.Fatal("replications share a workload seed")
	}
	if reps[0].NetSeed == reps[0].WorkloadSeed {
		t.Fatal("net seed must differ from workload seed")
	}
}

func TestRunReplicatedParallelDeterminism(t *testing.T) {
	spec := RunSpec{
		Bucket: workload.UniformMix,
		Workload: workload.Config{
			Batches: 2, MeanJobsPerBatch: 5,
		},
		Scheduler: func() sched.Scheduler { return sched.Greedy{} },
	}
	reps := DefaultReplications(3, 3)
	a, err := RunReplicated(spec, reps)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunReplicated(spec, reps)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Makespan != b[i].Makespan {
			t.Fatalf("replication %d differs across invocations", i)
		}
	}
	// Distinct replications must not be identical clones.
	if a[0].Makespan == a[1].Makespan && a[1].Makespan == a[2].Makespan {
		t.Fatal("all replications identical — seeds not applied")
	}
}

func TestRunReplicatedPropagatesError(t *testing.T) {
	spec := RunSpec{
		Bucket:    workload.UniformMix,
		Workload:  workload.Config{Batches: -1}, // invalid
		Scheduler: func() sched.Scheduler { return sched.ICOnly{} },
	}
	if _, err := RunReplicated(spec, DefaultReplications(1, 2)); err == nil {
		t.Fatal("invalid workload config not propagated")
	}
}

func TestFigure3QRSMShape(t *testing.T) {
	tab, err := Figure3QRSM(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Processing time must grow with size down each column.
	for col := 1; col <= 3; col++ {
		prev := -1.0
		for row := 0; row < len(tab.Rows); row++ {
			v := cellF(t, tab, row, col)
			if v < prev*0.8 { // allow mild non-monotonicity from feature noise
				t.Fatalf("col %d not increasing with size: %v after %v", col, v, prev)
			}
			prev = v
		}
	}
	if len(tab.Notes) == 0 || !strings.Contains(tab.Notes[0], "R²") {
		t.Fatal("missing fit-quality note")
	}
}

func TestFigure4aLearnsProfile(t *testing.T) {
	tab, err := Figure4aTimeOfDay(2)
	if err != nil {
		t.Fatal(err)
	}
	// The learned night (03:00) estimate must exceed the afternoon (15:00).
	var night, day float64
	for _, row := range tab.Rows {
		if row[0] == "03:00" {
			night = mustF(t, row[1])
		}
		if row[0] == "15:00" {
			day = mustF(t, row[1])
		}
	}
	if night <= day {
		t.Fatalf("diurnal contrast not learned: night %v <= day %v", night, day)
	}
}

func mustF(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}

func TestFigure4bThreadsTrackBandwidth(t *testing.T) {
	tab, err := Figure4bThreads(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 8 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Threads must be within the model's bounds everywhere.
	for _, row := range tab.Rows {
		th := mustF(t, row[1])
		if th < 0 || th > 24 {
			t.Fatalf("threads %v out of [0,24]", th)
		}
	}
	// The table reads the tuner's history, which the tuner keeps only on
	// request: pin its text, observation count included.
	const want = "Figure 4(b) — tuned upload threads over the day\n" +
		"hour   threads  offered_kBps\n" +
		"-----  -------  ------------\n" +
		"00:00  19       812         \n" +
		"03:00  23       900         \n" +
		"06:00  24       812         \n" +
		"09:00  23       600         \n" +
		"12:00  22       388         \n" +
		"15:00  21       300         \n" +
		"18:00  23       388         \n" +
		"21:00  24       600         \n" +
		"note: neighbour-memory tuner, 479 observations; higher offered bandwidth sustains more threads\n"
	if got := tab.String(); got != want {
		t.Fatalf("Figure 4(b) table changed:\n%s\nwant:\n%s", got, want)
	}
}

func TestFigure6BurstingBeatsICOnly(t *testing.T) {
	tab, err := Figure6Makespan(4)
	if err != nil {
		t.Fatal(err)
	}
	base := cellF(t, tab, 0, 1)
	// The paper's Fig. 6 claim covers Greedy and Op; the SIBS row is
	// informational (it is not part of that figure) and higher-variance.
	for row := 1; row <= 2; row++ {
		mk := cellF(t, tab, row, 1)
		if mk >= base {
			t.Fatalf("%s makespan %v not better than ICOnly %v", cell(tab, row, 0), mk, base)
		}
	}
	// Greedy ≈ Op (within 10%).
	g, op := cellF(t, tab, 1, 1), cellF(t, tab, 2, 1)
	if absF(g-op)/op > 0.10 {
		t.Fatalf("Greedy %v vs Op %v differ by more than 10%%", g, op)
	}
}

func TestFigure7OpHasMoreValleys(t *testing.T) {
	tab, err := Figure7Completions(5)
	if err != nil {
		t.Fatal(err)
	}
	// Rows alternate Greedy/Op per bucket; column 5 is valleys.
	for i := 0; i+1 < len(tab.Rows); i += 2 {
		g := cellF(t, tab, i, 5)
		op := cellF(t, tab, i+1, 5)
		if op <= g {
			t.Fatalf("bucket %s: Op valleys %v not above Greedy %v",
				cell(tab, i, 0), op, g)
		}
	}
}

func TestFigure9OpBeatsGreedyOnOrderedData(t *testing.T) {
	tab, err := Figure9OOMetric(6)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Notes) == 0 {
		t.Fatal("missing summary note")
	}
	// Mean ordered data for Op must exceed Greedy (the Fig. 9 claim).
	var g, op float64
	if _, err := fscan(tab.Notes[0], &g, &op); err != nil {
		t.Fatalf("note %q: %v", tab.Notes[0], err)
	}
	if op <= g {
		t.Fatalf("Op mean ordered data %v not above Greedy %v", op, g)
	}
}

// fscan pulls the two numbers out of the Figure 9 note.
func fscan(note string, g, op *float64) (int, error) {
	cleaned := strings.NewReplacer("MB", "", ",", "", "(", " ", ")", " ").Replace(note)
	fields := strings.Fields(cleaned)
	var nums []float64
	for _, f := range fields {
		if v, err := strconv.ParseFloat(f, 64); err == nil {
			nums = append(nums, v)
		}
	}
	if len(nums) < 2 {
		return 0, strconvErr(note)
	}
	*g, *op = nums[0], nums[1]
	return 2, nil
}

type strconvErr string

func (e strconvErr) Error() string { return "no numbers in note: " + string(e) }

func TestFigure10RelativeOOOrdering(t *testing.T) {
	tab, err := Figure10RelativeOO(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// All bursting schedulers should show positive mean relative OO (they
	// beat the IC-only baseline in ordered data availability).
	for _, row := range tab.Rows {
		if mustF(t, row[1]) <= 0 {
			t.Fatalf("%s mean relative OO %s not positive", row[0], row[1])
		}
	}
	// Op above Greedy — the central Fig. 10 claim.
	if cellF(t, tab, 1, 1) <= cellF(t, tab, 0, 1) {
		t.Fatalf("Op relative OO %v not above Greedy %v",
			cellF(t, tab, 1, 1), cellF(t, tab, 0, 1))
	}
}

func TestTable1Shapes(t *testing.T) {
	tabs, err := Table1Metrics(8)
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 2 {
		t.Fatalf("tables = %d", len(tabs))
	}
	for _, tab := range tabs {
		for _, row := range tab.Rows {
			icU, ecU := mustF(t, row[1]), mustF(t, row[2])
			burst, speedup := mustF(t, row[3]), mustF(t, row[4])
			if icU < 30 || icU > 100 {
				t.Fatalf("IC util %v implausible", icU)
			}
			if ecU < 0 || ecU > 100 {
				t.Fatalf("EC util %v implausible", ecU)
			}
			if burst < 0 || burst > 1 {
				t.Fatalf("burst %v implausible", burst)
			}
			if speedup < 1 {
				t.Fatalf("speedup %v below 1", speedup)
			}
		}
	}
}

func TestSIBSOptimizationRaisesECUtil(t *testing.T) {
	tab, err := SIBSOptimization(9)
	if err != nil {
		t.Fatal(err)
	}
	opEC := cellF(t, tab, 0, 2)
	sibsEC := cellF(t, tab, 1, 2)
	if sibsEC <= opEC {
		t.Fatalf("SIBS EC util %v not above Op %v", sibsEC, opEC)
	}
}

func TestAblationsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations are slow in -short mode")
	}
	tabs, err := Ablations(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 8 {
		t.Fatalf("ablation tables = %d, want 8", len(tabs))
	}
	for _, tab := range tabs {
		if len(tab.Rows) < 2 {
			t.Fatalf("%s: too few rows", tab.Title)
		}
		if tab.String() == "" {
			t.Fatal("empty rendering")
		}
	}
}

func TestAblationSlackMarginMonotoneBurst(t *testing.T) {
	tab, err := AblationSlackMargin(11)
	if err != nil {
		t.Fatal(err)
	}
	// Burst ratio (column 3) must not increase as τ grows.
	prev := 2.0
	for _, row := range tab.Rows {
		b := mustF(t, row[3])
		if b > prev+0.02 {
			t.Fatalf("burst ratio rose with larger margin: %v after %v", b, prev)
		}
		prev = b
	}
}

func TestExtensionAutoscaleTable(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	tab, err := ExtensionAutoscale(12)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// fixed-6 must beat fixed-2 on makespan in the EC-bound scenario, and
	// the elastic fleet must rent fewer hours than fixed-6.
	mk2 := mustF(t, tab.Rows[0][1])
	mk6 := mustF(t, tab.Rows[1][1])
	if mk6 >= mk2 {
		t.Fatalf("fixed-6 (%v) not faster than fixed-2 (%v): scenario not EC-bound", mk6, mk2)
	}
	rent6 := mustF(t, tab.Rows[1][4])
	rentE := mustF(t, tab.Rows[2][4])
	if rentE >= rent6 {
		t.Fatalf("elastic rented %v >= fixed-6 %v", rentE, rent6)
	}
}

func TestExtensionTicketsOrdering(t *testing.T) {
	tab, err := ExtensionTickets(13)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// The IC-only baseline must need the loosest p95 quote.
	icQuote := mustF(t, tab.Rows[0][1])
	for _, row := range tab.Rows[1:] {
		if mustF(t, row[1]) >= icQuote {
			t.Fatalf("%s quote %s not tighter than ICOnly %v", row[0], row[1], icQuote)
		}
	}
}

func TestExtensionMultiECShape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	tab, err := ExtensionMultiEC(14)
	if err != nil {
		t.Fatal(err)
	}
	one := mustF(t, tab.Rows[0][1])
	two := mustF(t, tab.Rows[1][1])
	if two >= one {
		t.Fatalf("second provider did not improve makespan: %v vs %v", two, one)
	}
	// Remote share must be positive once a second provider exists.
	if mustF(t, tab.Rows[1][4]) <= 0 {
		t.Fatal("remote share zero with a second provider")
	}
}

func TestExtensionsRunAll(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	tabs, err := Extensions(15)
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 3 {
		t.Fatalf("extension tables = %d", len(tabs))
	}
}
