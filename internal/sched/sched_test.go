package sched

import (
	"math"
	"testing"

	"cloudburst/internal/job"
)

// testState builds an observable state with simple estimators: processing
// time proportional to size (2 s/MB) and flat predicted bandwidth.
func testState(upBW, downBW float64) *State {
	return &State{
		Now:               0,
		ICMachines:        8,
		ICSpeed:           1,
		ECMachines:        2,
		ECSpeed:           1,
		PredictUploadBW:   func(t float64) float64 { return upBW },
		PredictDownloadBW: func(t float64) float64 { return downBW },
		EstimateProc:      func(f job.Features) float64 { return 2 * f.SizeMB },
	}
}

// mkJob builds a job with the given id and size in MB.
func mkJob(id int, sizeMB float64) *job.Job {
	return &job.Job{
		ID:           id,
		ParentID:     -1,
		InputSize:    job.Bytes(sizeMB),
		OutputSize:   job.Bytes(sizeMB * 0.5),
		Features:     job.Features{SizeMB: sizeMB, Pages: 1000},
		TrueProcTime: 2 * sizeMB,
	}
}

func placements(ds []Decision) []Placement {
	out := make([]Placement, len(ds))
	for i, d := range ds {
		out[i] = d.Place
	}
	return out
}

func countEC(ds []Decision) int {
	n := 0
	for _, d := range ds {
		if d.Place == PlaceEC {
			n++
		}
	}
	return n
}

func TestICOnlyPlacesEverythingIC(t *testing.T) {
	st := testState(1e6, 1e6)
	batch := []*job.Job{mkJob(0, 10), mkJob(1, 200)}
	ds := ICOnly{}.Schedule(batch, st, job.NewCounter(100))
	if len(ds) != 2 {
		t.Fatalf("decisions = %d", len(ds))
	}
	for _, d := range ds {
		if d.Place != PlaceIC {
			t.Fatal("ICOnly bursted a job")
		}
	}
	if (ICOnly{}).Name() != "ICOnly" {
		t.Fatal("name wrong")
	}
}

func TestGreedyPrefersICWhenNetworkSlow(t *testing.T) {
	// 1 B/s network: EC is hopeless, everything stays internal.
	st := testState(1, 1)
	batch := []*job.Job{mkJob(0, 50), mkJob(1, 50), mkJob(2, 50)}
	ds := Greedy{}.Schedule(batch, st, job.NewCounter(100))
	if countEC(ds) != 0 {
		t.Fatalf("greedy bursted %d jobs over a dead link: %v", countEC(ds), placements(ds))
	}
}

func TestGreedyBurstsWhenICOverloaded(t *testing.T) {
	st := testState(50*job.Megabyte, 50*job.Megabyte) // fast pipe
	st.ICBacklogStd = 100000                          // IC drowning in work
	batch := []*job.Job{mkJob(0, 50), mkJob(1, 50)}
	ds := Greedy{}.Schedule(batch, st, job.NewCounter(100))
	if countEC(ds) != 2 {
		t.Fatalf("greedy kept jobs on an overloaded IC: %v", placements(ds))
	}
}

func TestGreedyAccountsCommittedLoad(t *testing.T) {
	// EC has 2 machines and a decent pipe; IC is loaded. Greedy should
	// burst early jobs, but as EC fills its estimate rises and later jobs
	// go back to IC — the within-batch feedback.
	st := testState(10*job.Megabyte, 10*job.Megabyte)
	st.ICBacklogStd = 3000
	batch := make([]*job.Job, 12)
	for i := range batch {
		batch[i] = mkJob(i, 100)
	}
	ds := Greedy{}.Schedule(batch, st, job.NewCounter(100))
	ec := countEC(ds)
	if ec == 0 || ec == len(batch) {
		t.Fatalf("greedy should split the batch, bursted %d/%d", ec, len(batch))
	}
}

func TestOrderPreservingHeadNeverBursted(t *testing.T) {
	// With an empty IC, the first job has zero slack, so Op must keep it
	// internal no matter how fast the network is.
	st := testState(1e9, 1e9)
	batch := []*job.Job{mkJob(0, 40), mkJob(1, 40)}
	ds := OrderPreserving{}.Schedule(batch, st, job.NewCounter(100))
	if ds[0].Place != PlaceIC {
		t.Fatal("head of queue bursted with zero slack")
	}
}

func TestOrderPreservingBurstsWithinSlack(t *testing.T) {
	// 8 IC machines, 2s/MB estimates. Eight 100MB jobs saturate IC for
	// ~200s each; later jobs gain slack. With a fast pipe the tail should
	// burst; with a dead pipe nothing should.
	fast := testState(20*job.Megabyte, 20*job.Megabyte)
	batch := make([]*job.Job, 16)
	for i := range batch {
		batch[i] = mkJob(i, 100)
	}
	dsFast := OrderPreserving{}.Schedule(batch, fast, job.NewCounter(100))
	if countEC(dsFast) == 0 {
		t.Fatalf("Op bursted nothing on a fast pipe: %v", placements(dsFast))
	}
	slow := testState(1, 1)
	dsSlow := OrderPreserving{}.Schedule(batch, slow, job.NewCounter(200))
	if countEC(dsSlow) != 0 {
		t.Fatalf("Op bursted over a dead pipe: %v", placements(dsSlow))
	}
}

func TestOrderPreservingSlackRespected(t *testing.T) {
	// Verify the invariant directly: replay the scheduler's own estimates
	// and check every EC job's estimated completion fits the slack of its
	// predecessors.
	st := testState(5*job.Megabyte, 5*job.Megabyte)
	st.ICBacklogStd = 2000
	batch := make([]*job.Job, 20)
	for i := range batch {
		batch[i] = mkJob(i, float64(20+10*(i%5)))
	}
	ds := OrderPreserving{}.Schedule(batch, st, job.NewCounter(100))
	// Recompute with the same virtual machinery.
	ic := newVirtualPool(st.ICMachines, st.ICSpeed, st.ICBacklogStd)
	ec := newECPipeline(st)
	var maxDone float64
	for _, d := range ds {
		est := st.estProc(d.Job)
		var done float64
		if d.Place == PlaceEC {
			tec := ec.estimate(d.Job, est)
			if tec > maxDone+1e-9 {
				t.Fatalf("job %d bursted with tec %v > slack %v", d.Job.ID, tec, maxDone)
			}
			done = ec.commit(d.Job, est)
		} else {
			done = ic.add(est, 0)
		}
		if done > maxDone {
			maxDone = done
		}
	}
}

func TestChunkPassReducesVariance(t *testing.T) {
	cfg := Config{}.withDefaults()
	batch := []*job.Job{mkJob(0, 10), mkJob(1, 280), mkJob(2, 15), mkJob(3, 12)}
	alloc := job.NewCounter(100)
	jobs := chunkPass(batch, cfg, alloc)
	if len(jobs) <= len(batch) {
		t.Fatalf("high-variance window did not trigger chunking: %d jobs", len(jobs))
	}
	// The 280MB job must be gone, replaced in place by ~50MB chunks.
	for _, j := range jobs {
		if j.InputSize > job.Bytes(60) {
			t.Fatalf("oversized job survived: %vMB", job.MB(j.InputSize))
		}
	}
	// Order: chunks occupy the parent's position (index 1..) before job 2.
	if jobs[0].ID != 0 {
		t.Fatal("first job moved")
	}
	if jobs[1].ParentID != 1 {
		t.Fatalf("chunk not in parent position: %+v", jobs[1])
	}
	last := jobs[len(jobs)-1]
	if last.ID != 3 {
		t.Fatalf("tail job displaced: %+v", last)
	}
}

func TestChunkPassLowVarianceUntouched(t *testing.T) {
	cfg := Config{}.withDefaults()
	batch := []*job.Job{mkJob(0, 100), mkJob(1, 110), mkJob(2, 105), mkJob(3, 95)}
	jobs := chunkPass(batch, cfg, job.NewCounter(100))
	if len(jobs) != 4 {
		t.Fatalf("uniform batch was chunked: %d jobs", len(jobs))
	}
	for i, j := range jobs {
		if j != batch[i] {
			t.Fatal("jobs reordered or replaced")
		}
	}
}

func TestChunkPassDoesNotMutateInput(t *testing.T) {
	cfg := Config{}.withDefaults()
	batch := []*job.Job{mkJob(0, 10), mkJob(1, 280), mkJob(2, 15), mkJob(3, 12)}
	orig := append([]*job.Job(nil), batch...)
	chunkPass(batch, cfg, job.NewCounter(100))
	for i := range batch {
		if batch[i] != orig[i] {
			t.Fatal("chunkPass mutated the caller's batch slice")
		}
	}
}

func TestSizeStd(t *testing.T) {
	if sizeStd(nil) != 0 || sizeStd([]*job.Job{mkJob(0, 5)}) != 0 {
		t.Fatal("degenerate windows should have zero std")
	}
	w := []*job.Job{mkJob(0, 10), mkJob(1, 30)}
	want := 10.0 * float64(job.Megabyte) // population std of {10,30}MB
	if got := sizeStd(w); math.Abs(got-want) > 1 {
		t.Fatalf("sizeStd = %v, want %v", got, want)
	}
}

func TestSlackMarginMakesBurstingConservative(t *testing.T) {
	st := testState(5*job.Megabyte, 5*job.Megabyte)
	st.ICBacklogStd = 4000
	batch := make([]*job.Job, 15)
	for i := range batch {
		batch[i] = mkJob(i, 80)
	}
	loose := OrderPreserving{}.Schedule(batch, st, job.NewCounter(100))
	tight := OrderPreserving{Cfg: Config{SlackMargin: 1e9}}.Schedule(batch, st, job.NewCounter(200))
	if countEC(tight) != 0 {
		t.Fatal("infinite margin should forbid bursting")
	}
	if countEC(loose) <= countEC(tight) {
		t.Fatalf("margin did not reduce bursting: %d vs %d", countEC(loose), countEC(tight))
	}
}

func TestSIBSBoundsFromCandidates(t *testing.T) {
	s := &SIBS{}
	if _, _, ok := s.Bounds(); ok {
		t.Fatal("bounds valid before any Schedule")
	}
	st := testState(5*job.Megabyte, 5*job.Megabyte)
	st.ICBacklogStd = 8000 // plenty of IC backlog -> many burst candidates
	batch := make([]*job.Job, 12)
	sizes := []float64{5, 10, 20, 40, 60, 80, 100, 120, 150, 200, 250, 280}
	for i := range batch {
		batch[i] = mkJob(i, sizes[i])
	}
	ds := s.Schedule(batch, st, job.NewCounter(100))
	if len(ds) == 0 {
		t.Fatal("no decisions")
	}
	sB, mB, ok := s.Bounds()
	if !ok {
		t.Fatal("bounds not computed despite candidates")
	}
	if sB <= 0 || mB < sB {
		t.Fatalf("bounds implausible: s=%d m=%d", sB, mB)
	}
}

func TestSIBSNoCandidatesKeepsBoundsInvalid(t *testing.T) {
	s := &SIBS{}
	st := testState(1, 1) // dead pipe: no job's no-load EC time can win
	batch := []*job.Job{mkJob(0, 100), mkJob(1, 100)}
	s.Schedule(batch, st, job.NewCounter(100))
	if _, _, ok := s.Bounds(); ok {
		t.Fatal("bounds should stay invalid with no burst candidates")
	}
}

func TestSIBSLeftoverCapacitySkewsBounds(t *testing.T) {
	// When the small queue is saturated and large is empty, the small
	// bound should shrink relative to the balanced case.
	mkState := func(qs [3]float64) *State {
		st := testState(5*job.Megabyte, 5*job.Megabyte)
		st.ICBacklogStd = 8000
		st.UploadQueues = qs
		return st
	}
	batch := make([]*job.Job, 12)
	for i := range batch {
		batch[i] = mkJob(i, float64(10+25*i))
	}
	balanced := &SIBS{}
	balanced.Schedule(batch, mkState([3]float64{0, 0, 0}), job.NewCounter(100))
	sBal, _, _ := balanced.Bounds()

	smallBusy := &SIBS{}
	smallBusy.Schedule(batch, mkState([3]float64{1e9, 0, 0}), job.NewCounter(200))
	sBusy, _, okBusy := smallBusy.Bounds()
	if !okBusy {
		t.Fatal("bounds missing")
	}
	if sBusy >= sBal {
		t.Fatalf("saturated small queue should shrink its interval: %d vs %d", sBusy, sBal)
	}
}

func TestPlacementString(t *testing.T) {
	if PlaceIC.String() != "IC" || PlaceEC.String() != "EC" {
		t.Fatal("placement names wrong")
	}
}

func TestStateGuards(t *testing.T) {
	st := testState(100, 100)
	st.EstimateProc = func(f job.Features) float64 { return -5 }
	if st.estProc(mkJob(0, 10)) != 1 {
		t.Fatal("negative estimate should clamp to 1")
	}
	st.PredictUploadBW = func(t float64) float64 { return 0 }
	if st.upBW(0) != 1 {
		t.Fatal("zero bandwidth prediction should clamp to 1")
	}
	st.PredictDownloadBW = func(t float64) float64 { return -3 }
	if st.downBW(0) != 1 {
		t.Fatal("negative bandwidth prediction should clamp to 1")
	}
}

func TestVirtualPool(t *testing.T) {
	v := newVirtualPool(2, 2, 8) // 2 machines, speed 2, 8 std-sec backlog
	// Backlog spread: each machine busy for 8/(2*2)=2s.
	if v.earliest() != 2 {
		t.Fatalf("earliest = %v, want 2", v.earliest())
	}
	end := v.add(4, 0) // 4 std-sec at speed 2 = 2s, starting at 2
	if end != 4 {
		t.Fatalf("add end = %v, want 4", end)
	}
	// Next add goes to the other machine (free at 2).
	if v.earliest() != 2 {
		t.Fatalf("earliest after add = %v", v.earliest())
	}
	end = v.add(2, 10) // readyAt dominates
	if end != 11 {
		t.Fatalf("readyAt add = %v, want 11", end)
	}
	if p := newVirtualPool(0, 1, 0); len(p.free) != 1 {
		t.Fatal("machine count should clamp to 1")
	}
}

func TestECPipelineSequentialUploads(t *testing.T) {
	st := testState(job.Megabyte, job.Megabyte) // 1 MB/s both ways
	ec := newECPipeline(st)
	j1 := mkJob(0, 60) // upload 60s, proc 120s, download 30s
	est := st.estProc(j1)
	tec := ec.estimate(j1, est)
	if math.Abs(tec-(60+120+30)) > 1e-6 {
		t.Fatalf("estimate = %v, want 210", tec)
	}
	done1 := ec.commit(j1, est)
	if math.Abs(done1-210) > 1e-6 {
		t.Fatalf("commit = %v, want 210", done1)
	}
	// Second identical job: upload waits for the first (starts at 60),
	// EC has 2 machines so proc starts right after its upload at 120,
	// download waits for the first download channel slot.
	j2 := mkJob(1, 60)
	done2 := ec.commit(j2, est)
	if done2 <= done1 {
		t.Fatalf("pipeline contention ignored: %v <= %v", done2, done1)
	}
}

// --- multi-site ("where") tests ---

func withRemoteSite(st *State, upBW, downBW float64, machines int) *State {
	st.RemoteSites = append(st.RemoteSites, SiteState{
		Machines:          machines,
		Speed:             1,
		PredictUploadBW:   func(t float64) float64 { return upBW },
		PredictDownloadBW: func(t float64) float64 { return downBW },
	})
	return st
}

func TestBestSitePicksFasterProvider(t *testing.T) {
	st := testState(1*job.Megabyte, 1*job.Megabyte)
	st = withRemoteSite(st, 10*job.Megabyte, 10*job.Megabyte, 2)
	pipes := allPipelines(st)
	if len(pipes) != 2 {
		t.Fatalf("pipelines = %d", len(pipes))
	}
	j := mkJob(0, 100)
	site, tec := bestSite(pipes, j, st.estProc(j))
	if site != 1 {
		t.Fatalf("bestSite = %d, want the 10x-faster remote", site)
	}
	if tec <= 0 {
		t.Fatalf("tec = %v", tec)
	}
}

func TestBestSiteAccountsBacklog(t *testing.T) {
	// The remote is faster but drowning in backlog: the primary wins.
	st := testState(2*job.Megabyte, 2*job.Megabyte)
	st = withRemoteSite(st, 4*job.Megabyte, 4*job.Megabyte, 1)
	st.RemoteSites[0].BacklogStd = 1e6
	pipes := allPipelines(st)
	j := mkJob(0, 50)
	site, _ := bestSite(pipes, j, st.estProc(j))
	if site != 0 {
		t.Fatalf("bestSite = %d, want the uncongested primary", site)
	}
}

func TestGreedyRoutesToRemoteSite(t *testing.T) {
	st := testState(1, 1) // dead primary pipe
	st.ICBacklogStd = 1e6 // IC hopeless too
	st = withRemoteSite(st, 20*job.Megabyte, 20*job.Megabyte, 4)
	batch := []*job.Job{mkJob(0, 50), mkJob(1, 50)}
	ds := Greedy{}.Schedule(batch, st, job.NewCounter(100))
	for _, d := range ds {
		if d.Place != PlaceEC || d.Site != 1 {
			t.Fatalf("decision %+v, want EC at site 1", d)
		}
	}
}

func TestOpRoutesWithinSlackToRemote(t *testing.T) {
	st := testState(1, 1) // dead primary pipe
	st.ICBacklogStd = 20000
	st = withRemoteSite(st, 20*job.Megabyte, 20*job.Megabyte, 4)
	batch := make([]*job.Job, 10)
	for i := range batch {
		batch[i] = mkJob(i, 80)
	}
	ds := OrderPreserving{}.Schedule(batch, st, job.NewCounter(100))
	remote := 0
	for _, d := range ds {
		if d.Place == PlaceEC {
			if d.Site != 1 {
				t.Fatalf("burst went to dead primary: %+v", d)
			}
			remote++
		}
	}
	if remote == 0 {
		t.Fatal("no bursts despite a fast remote and deep IC backlog")
	}
}

func TestSingleSiteDecisionsHaveSiteZero(t *testing.T) {
	st := testState(5*job.Megabyte, 5*job.Megabyte)
	st.ICBacklogStd = 8000
	batch := make([]*job.Job, 8)
	for i := range batch {
		batch[i] = mkJob(i, 80)
	}
	for _, s := range []Scheduler{Greedy{}, GreedyTracking{}, OrderPreserving{}} {
		for _, d := range s.Schedule(batch, st, job.NewCounter(100)) {
			if d.Site != 0 {
				t.Fatalf("%s produced site %d without remote sites", s.Name(), d.Site)
			}
		}
	}
}
