package engine

import (
	"context"
	"errors"
	"math"
	"slices"
	"testing"

	"cloudburst/internal/job"
	"cloudburst/internal/netsim"
	"cloudburst/internal/sched"
	"cloudburst/internal/sla"
	"cloudburst/internal/trace"
	"cloudburst/internal/window"
	"cloudburst/internal/workload"
)

// smallWorkload builds a fast 3-batch workload for integration tests.
func smallWorkload(bucket workload.Bucket, seed int64) []workload.Batch {
	g := workload.MustNewGenerator(workload.Config{
		Bucket:           bucket,
		Batches:          3,
		MeanJobsPerBatch: 6,
		Seed:             seed,
	})
	return g.Generate()
}

func mustRun(t *testing.T, cfg Config, s sched.Scheduler, batches []workload.Batch) *Result {
	t.Helper()
	res, err := Run(cfg, s, batches)
	if err != nil {
		t.Fatalf("Run(%s): %v", s.Name(), err)
	}
	return res
}

func TestRunCompletesAllJobs(t *testing.T) {
	batches := smallWorkload(workload.UniformMix, 1)
	for _, s := range []sched.Scheduler{
		sched.ICOnly{}, sched.Greedy{}, sched.GreedyTracking{},
		sched.OrderPreserving{}, &sched.SIBS{},
	} {
		res := mustRun(t, Config{NetSeed: 1}, s, batches)
		if res.Records.Len() != res.Jobs {
			t.Fatalf("%s: records %d != jobs %d", s.Name(), res.Records.Len(), res.Jobs)
		}
		if res.Jobs < res.OriginalJobs {
			t.Fatalf("%s: fewer completions than submissions", s.Name())
		}
		if res.Makespan <= 0 {
			t.Fatalf("%s: non-positive makespan", s.Name())
		}
		// Every sequence slot 0..Jobs-1 completed exactly once.
		recs := res.Records.Records()
		for i, r := range recs {
			if r.Seq != i {
				t.Fatalf("%s: seq gap at %d (got %d)", s.Name(), i, r.Seq)
			}
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	// Heavy enough that jobs actually burst and the network matters.
	g := workload.MustNewGenerator(workload.Config{
		Bucket: workload.LargeBias, Batches: 4, MeanJobsPerBatch: 12, Seed: 2,
	})
	batches := g.Generate()
	a := mustRun(t, Config{NetSeed: 5}, sched.OrderPreserving{}, batches)
	b := mustRun(t, Config{NetSeed: 5}, sched.OrderPreserving{}, batches)
	if a.Makespan != b.Makespan || a.BurstRatio != b.BurstRatio {
		t.Fatalf("same seed diverged: %v/%v vs %v/%v",
			a.Makespan, a.BurstRatio, b.Makespan, b.BurstRatio)
	}
	ra, rb := a.Records.Records(), b.Records.Records()
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatalf("record %d differs: %+v vs %+v", i, ra[i], rb[i])
		}
	}
	c := mustRun(t, Config{NetSeed: 6}, sched.OrderPreserving{}, batches)
	if a.Makespan == c.Makespan && a.Records.Records()[0] == c.Records.Records()[0] {
		// Different network seeds may coincide on makespan, but identical
		// trajectories would mean the seed is ignored.
		same := true
		rc := c.Records.Records()
		for i := range ra {
			if ra[i] != rc[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("network seed has no effect")
		}
	}
}

func TestICOnlyNeverUsesNetwork(t *testing.T) {
	batches := smallWorkload(workload.UniformMix, 3)
	res := mustRun(t, Config{NetSeed: 1}, sched.ICOnly{}, batches)
	if res.BurstRatio != 0 || res.ECUtil != 0 {
		t.Fatalf("ICOnly touched the EC: burst=%v ecU=%v", res.BurstRatio, res.ECUtil)
	}
	if res.UploadedBytes != 0 || res.DownloadedBytes != 0 {
		t.Fatal("ICOnly moved bytes")
	}
}

func TestBurstingSchedulersUseEC(t *testing.T) {
	// Overload the IC so there is real pressure to burst.
	g := workload.MustNewGenerator(workload.Config{
		Bucket: workload.UniformMix, Batches: 4, MeanJobsPerBatch: 12, Seed: 4,
	})
	batches := g.Generate()
	for _, s := range []sched.Scheduler{sched.Greedy{}, sched.OrderPreserving{}, &sched.SIBS{}} {
		res := mustRun(t, Config{NetSeed: 1}, s, batches)
		if res.BurstRatio == 0 {
			t.Fatalf("%s never bursted under load", s.Name())
		}
		if res.UploadedBytes == 0 || res.DownloadedBytes == 0 {
			t.Fatalf("%s bursted without moving bytes", s.Name())
		}
		if res.ECUtil <= 0 {
			t.Fatalf("%s: EC utilization is zero despite bursting", s.Name())
		}
	}
}

func TestECCompletionsIncludeRoundTrip(t *testing.T) {
	batches := smallWorkload(workload.UniformMix, 5)
	res := mustRun(t, Config{NetSeed: 1}, sched.Greedy{}, batches)
	for _, r := range res.Records.Records() {
		if r.Where == sla.EC {
			// An EC completion cannot be faster than its compute alone —
			// the round trip adds transfer time.
			if r.CompletedAt-r.ArrivalTime <= 0 {
				t.Fatalf("EC job %d completed instantly", r.JobID)
			}
		}
	}
}

func TestMakespanConsistentWithRecords(t *testing.T) {
	batches := smallWorkload(workload.SmallBias, 6)
	res := mustRun(t, Config{NetSeed: 2}, sched.OrderPreserving{}, batches)
	if math.Abs(res.Makespan-res.Records.Makespan()) > 1e-9 {
		t.Fatal("result makespan disagrees with record set")
	}
	if math.Abs(res.Speedup-res.Records.Speedup(res.TSeq)) > 1e-9 {
		t.Fatal("result speedup disagrees with record set")
	}
	if res.TSeq != workload.TotalStdSeconds(batches) {
		t.Fatal("TSeq wrong")
	}
}

func TestChunkingGrowsQueue(t *testing.T) {
	// A batch mixing tiny and huge jobs must trigger Op's chunk pass.
	g := workload.MustNewGenerator(workload.Config{
		Bucket: workload.UniformMix, Batches: 4, MeanJobsPerBatch: 10, Seed: 7,
	})
	batches := g.Generate()
	res := mustRun(t, Config{NetSeed: 1}, sched.OrderPreserving{}, batches)
	if res.ChunksCreated == 0 {
		t.Fatal("Op never chunked a mixed workload")
	}
	if res.Jobs != res.OriginalJobs+res.ChunksCreated-countChunkedParents(res) {
		// Each chunked parent is replaced by its chunks: jobs = originals
		// − parents + chunks. We don't export parent count, so just check
		// the queue grew.
		if res.Jobs <= res.OriginalJobs {
			t.Fatalf("chunking did not grow the queue: %d vs %d", res.Jobs, res.OriginalJobs)
		}
	}
}

// countChunkedParents is a placeholder to document the queue-size identity;
// parent counts are not exported, so the test above falls back to a growth
// check.
func countChunkedParents(*Result) int { return -1 }

func TestUtilizationBounds(t *testing.T) {
	batches := smallWorkload(workload.UniformMix, 8)
	for _, s := range []sched.Scheduler{sched.ICOnly{}, sched.Greedy{}, &sched.SIBS{}} {
		res := mustRun(t, Config{NetSeed: 3}, s, batches)
		if res.ICUtil < 0 || res.ICUtil > 1+1e-9 {
			t.Fatalf("%s IC util %v out of [0,1]", s.Name(), res.ICUtil)
		}
		if res.ECUtil < 0 || res.ECUtil > 1+1e-9 {
			t.Fatalf("%s EC util %v out of [0,1]", s.Name(), res.ECUtil)
		}
	}
}

func TestProbingFeedsPredictor(t *testing.T) {
	batches := smallWorkload(workload.UniformMix, 9)
	res := mustRun(t, Config{NetSeed: 1}, sched.ICOnly{}, batches)
	if res.ProbeCount == 0 {
		t.Fatal("no probes ran")
	}
	if res.PredictorObservations < res.ProbeCount {
		t.Fatal("probe results did not reach the predictor")
	}
}

func TestQRSMLearnsDuringRun(t *testing.T) {
	batches := smallWorkload(workload.UniformMix, 10)
	res := mustRun(t, Config{NetSeed: 1}, sched.ICOnly{}, batches)
	if res.QRSMR2 <= 0.5 {
		t.Fatalf("QRSM R² = %v, expected a fitted model (bootstrap + online)", res.QRSMR2)
	}
}

func TestReschedulingCompletesAndCanMoveJobs(t *testing.T) {
	g := workload.MustNewGenerator(workload.Config{
		Bucket: workload.LargeBias, Batches: 4, MeanJobsPerBatch: 10, Seed: 13,
	})
	batches := g.Generate()
	plain := mustRun(t, Config{NetSeed: 2}, sched.OrderPreserving{}, batches)
	resched := mustRun(t, Config{NetSeed: 2, Rescheduling: true}, sched.OrderPreserving{}, batches)
	if resched.Records.Len() != plain.Records.Len() {
		t.Fatal("rescheduling lost or duplicated jobs")
	}
	// Steal-back converts EC placements to IC at the tail of the run, so
	// the burst ratio must not grow and usually shrinks; either way the
	// run must stay correct.
	if resched.Makespan <= 0 {
		t.Fatal("rescheduled run broken")
	}
}

func TestTimeoutOnImpossibleNetwork(t *testing.T) {
	// A nearly dead network under the production bandwidth prior: both
	// batches arrive before the first probe corrects the prior, and the
	// single IC machine queues them deep, so every bursting scheduler sends
	// work into a 10 B/s pipe that needs years to carry it. The drain must
	// trip the valve 30 virtual days after the last arrival, not hang.
	g := workload.MustNewGenerator(workload.Config{
		Bucket: workload.LargeBias, Batches: 2, MeanJobsPerBatch: 6, Seed: 14,
	})
	batches := g.Generate()
	cfg := Config{
		NetSeed:         1,
		UploadProfile:   netsim.ConstantProfile(10), // 10 B/s
		DownloadProfile: netsim.ConstantProfile(10),
		ICMachines:      1,
	}
	for _, s := range []sched.Scheduler{sched.Greedy{}, sched.GreedyTracking{}, sched.OrderPreserving{}} {
		if _, err := Run(cfg, s, batches); !errors.Is(err, ErrTimeout) {
			t.Fatalf("%s: err = %v, want ErrTimeout", s.Name(), err)
		}
	}
	// A Serve cancelled mid-stream drains under the same valve.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := workload.MustNewStream(workload.StreamConfig{
		Bucket: workload.LargeBias, BaseJobsPerBatch: 6, Seed: 14,
	})
	_, err := Serve(ctx, cfg, sched.Greedy{}, src, StreamConfig{
		OnWindow: func(window.Report) { cancel() },
	})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("cancelled Serve: err = %v, want ErrTimeout", err)
	}
}

func TestSIBSBoundsReachUploader(t *testing.T) {
	g := workload.MustNewGenerator(workload.Config{
		Bucket: workload.UniformMix, Batches: 4, MeanJobsPerBatch: 12, Seed: 15,
	})
	batches := g.Generate()
	s := &sched.SIBS{}
	res := mustRun(t, Config{NetSeed: 1}, s, batches)
	if _, _, ok := s.Bounds(); !ok {
		t.Fatal("SIBS computed no bounds over a loaded uniform workload")
	}
	if res.BurstRatio == 0 {
		t.Fatal("SIBS never bursted")
	}
}

func TestSeqOrderMatchesDecisionOrder(t *testing.T) {
	// Seq must be assigned in queue order: within a batch, jobs earlier in
	// the decision list get lower seq; later batches continue the count.
	batches := smallWorkload(workload.UniformMix, 16)
	res := mustRun(t, Config{NetSeed: 1}, sched.ICOnly{}, batches)
	recs := res.Records.Records()
	// For ICOnly (no chunking) seq order must equal job-ID order.
	for i := 1; i < len(recs); i++ {
		if recs[i].JobID < recs[i-1].JobID {
			t.Fatalf("seq order broke job order: %d after %d", recs[i].JobID, recs[i-1].JobID)
		}
	}
}

func TestFlowTimePositive(t *testing.T) {
	batches := smallWorkload(workload.SmallBias, 17)
	res := mustRun(t, Config{NetSeed: 1}, sched.Greedy{}, batches)
	if res.Records.MeanFlowTime() <= 0 {
		t.Fatal("mean flow time must be positive")
	}
}

func TestAutoscalerGrowsUnderLoad(t *testing.T) {
	g := workload.MustNewGenerator(workload.Config{
		Bucket: workload.UniformMix, Batches: 5, MeanJobsPerBatch: 15, Seed: 20,
	})
	batches := g.Generate()
	cfg := Config{
		NetSeed:    3,
		ECMachines: 1,
		Autoscale:  &AutoscaleConfig{Max: 6, BootDelay: 60, TargetWait: 120},
	}
	res := mustRun(t, cfg, sched.OrderPreserving{}, batches)
	if res.ECPeakMachines <= 1 {
		t.Fatalf("fleet never grew: peak %d", res.ECPeakMachines)
	}
	if res.ECBoots == 0 {
		t.Fatal("no boots recorded")
	}
	if res.ECMachineSeconds <= 0 {
		t.Fatal("no rented machine time")
	}
	// Rented time must be well below the max fleet held for the whole run
	// (otherwise the scaler never drained).
	maxRent := float64(res.ECPeakMachines) * res.Makespan
	if res.ECMachineSeconds >= maxRent {
		t.Fatalf("rented %v >= peak-fleet-forever %v", res.ECMachineSeconds, maxRent)
	}
}

func TestAutoscalerIdleWorkloadStaysSmall(t *testing.T) {
	g := workload.MustNewGenerator(workload.Config{
		Bucket: workload.SmallBias, Batches: 2, MeanJobsPerBatch: 3, Seed: 21,
	})
	batches := g.Generate()
	cfg := Config{
		NetSeed:    3,
		ECMachines: 1,
		Autoscale:  &AutoscaleConfig{Max: 6},
	}
	res := mustRun(t, cfg, sched.OrderPreserving{}, batches)
	if res.ECPeakMachines > 2 {
		t.Fatalf("light load booted %d machines", res.ECPeakMachines)
	}
}

func TestAutoscalerValidation(t *testing.T) {
	g := workload.MustNewGenerator(workload.Config{Batches: 1, MeanJobsPerBatch: 2, Seed: 22})
	_, err := Run(Config{Autoscale: &AutoscaleConfig{Max: -1}}, sched.ICOnly{}, g.Generate())
	if err == nil {
		t.Fatal("invalid autoscale bounds accepted")
	}
}

func TestFixedFleetMachineSeconds(t *testing.T) {
	batches := smallWorkload(workload.UniformMix, 23)
	res := mustRun(t, Config{NetSeed: 1}, sched.ICOnly{}, batches)
	// Fixed fleet of 2: rented seconds = 2 × elapsed window.
	if res.ECMachineSeconds <= 0 || res.ECPeakMachines != 2 {
		t.Fatalf("fixed-fleet accounting wrong: %v / %d", res.ECMachineSeconds, res.ECPeakMachines)
	}
	if res.ECBoots != 0 || res.ECDrains != 0 {
		t.Fatal("fixed fleet recorded scaling events")
	}
}

func TestRemoteSitesReceiveWork(t *testing.T) {
	g := workload.MustNewGenerator(workload.Config{
		Bucket: workload.UniformMix, Batches: 5, MeanJobsPerBatch: 15, Seed: 30,
	})
	batches := g.Generate()
	single := mustRun(t, Config{NetSeed: 4}, sched.OrderPreserving{}, batches)
	multi := mustRun(t, Config{
		NetSeed: 4,
		RemoteSites: []RemoteSiteConfig{
			{Machines: 2}, // a second provider with its own default pipe
		},
	}, sched.OrderPreserving{}, batches)
	if len(multi.SiteBursts) != 1 || len(multi.SiteUtils) != 1 {
		t.Fatalf("site diagnostics missing: %+v / %+v", multi.SiteBursts, multi.SiteUtils)
	}
	if multi.SiteBursts[0] == 0 {
		t.Fatal("second provider never used despite doubled capacity")
	}
	if multi.Jobs < single.Jobs-5 || multi.Jobs > single.Jobs+200 {
		t.Fatalf("job accounting off: %d vs %d", multi.Jobs, single.Jobs)
	}
	// A second provider adds round-trip capacity: total bursts should rise
	// and the makespan should not get meaningfully worse.
	if multi.BurstRatio <= single.BurstRatio {
		t.Fatalf("multi-site burst ratio %v not above single %v",
			multi.BurstRatio, single.BurstRatio)
	}
	if multi.Makespan > single.Makespan*1.1 {
		t.Fatalf("second provider hurt makespan: %v vs %v", multi.Makespan, single.Makespan)
	}
}

func TestRemoteSiteChoiceFollowsBandwidth(t *testing.T) {
	// Give the remote site a far better pipe than the primary: the
	// scheduler should route most bursts there.
	g := workload.MustNewGenerator(workload.Config{
		Bucket: workload.UniformMix, Batches: 5, MeanJobsPerBatch: 15, Seed: 31,
	})
	batches := g.Generate()
	res := mustRun(t, Config{
		NetSeed:         5,
		UploadProfile:   netsim.ConstantProfile(150 * 1024), // starved primary
		DownloadProfile: netsim.ConstantProfile(200 * 1024),
		RemoteSites: []RemoteSiteConfig{{
			Machines:        3,
			UploadProfile:   netsim.DiurnalProfile(900*1024, 0.2),
			DownloadProfile: netsim.DiurnalProfile(1200*1024, 0.2),
		}},
	}, sched.GreedyTracking{}, batches)
	totalEC := 0
	for _, r := range res.Records.Records() {
		if r.Where == sla.EC {
			totalEC++
		}
	}
	if totalEC == 0 {
		t.Fatal("nothing bursted on this seed")
	}
	remote := res.SiteBursts[0]
	primary := totalEC - remote
	// With commits equalizing effective queue lengths, the slow primary
	// still absorbs some jobs; the requirement is that the fast provider
	// carries a substantial share, not a monopoly.
	if remote < totalEC/3 {
		t.Fatalf("scheduler ignored the faster provider: remote %d vs primary %d", remote, primary)
	}
	if res.SiteUtils[0] <= 0 {
		t.Fatal("remote site did no work")
	}
}

func TestRemoteSitesDeterministic(t *testing.T) {
	g := workload.MustNewGenerator(workload.Config{
		Bucket: workload.LargeBias, Batches: 3, MeanJobsPerBatch: 8, Seed: 32,
	})
	batches := g.Generate()
	cfg := Config{NetSeed: 6, RemoteSites: []RemoteSiteConfig{{Machines: 2}}}
	a := mustRun(t, cfg, sched.Greedy{}, batches)
	b := mustRun(t, cfg, sched.Greedy{}, batches)
	if a.Makespan != b.Makespan || a.SiteBursts[0] != b.SiteBursts[0] {
		t.Fatal("multi-site run not deterministic")
	}
}

// onSchedule wraps a scheduler and hands round each scheduling round's
// snapshot before the scheduler sees it.
type onSchedule struct {
	sched.Scheduler
	round func(st *sched.State)
}

func (o onSchedule) Schedule(batch []*job.Job, st *sched.State, alloc job.IDAllocator) []sched.Decision {
	o.round(st)
	return o.Scheduler.Schedule(batch, st, alloc)
}

// TestRunContextCancelMidRun cancels a run from inside its first scheduling
// round, with well over 1,024 events still to fire. Run shares Serve's
// drive loop, but where a cancelled Serve drains, a cancelled Run aborts
// with ctx.Err() and hands back no partial result.
func TestRunContextCancelMidRun(t *testing.T) {
	prev := SetArenaPooling(false) // keep each engine's event count readable after the run
	defer SetArenaPooling(prev)
	batches := workload.MustNewGenerator(workload.Config{
		Bucket: workload.LargeBias, Batches: 24, MeanJobsPerBatch: 40, Seed: 5,
	}).Generate()

	full := newFiniteEngine(t, Config{NetSeed: 5}, sched.Greedy{})
	if _, err := full.run(context.Background(), batches); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var e *Engine
	var firedAtCancel uint64
	e = newFiniteEngine(t, Config{NetSeed: 5}, onSchedule{sched.Greedy{}, func(*sched.State) {
		if firedAtCancel == 0 {
			firedAtCancel = e.eng.Fired()
			cancel()
		}
	}})
	res, err := e.run(ctx, batches)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run cancel returned %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatalf("cancelled run returned a partial result: %+v", res)
	}
	if left := full.eng.Fired() - firedAtCancel; left <= 1024 {
		t.Fatalf("only %d events remained at the cancel; the test needs a longer run", left)
	}
	if e.eng.Fired() >= full.eng.Fired() {
		t.Fatalf("cancelled run fired all %d events", e.eng.Fired())
	}
}

// TestBatchAndECTraces reads a two-site run's batches and bursts back from
// its snapshots and its trace: every round predicts positive bandwidth at
// both sites, every batch is placed in order and its placements sum to the
// run's jobs, every bursted job travels its site's pipeline in phase order,
// and both sites carry bursts.
func TestBatchAndECTraces(t *testing.T) {
	g := workload.MustNewGenerator(workload.Config{
		Bucket: workload.UniformMix, Batches: 4, MeanJobsPerBatch: 12, Seed: 41,
	})
	rec := trace.NewRecorder()
	cfg := Config{NetSeed: 1, RemoteSites: []RemoteSiteConfig{{Machines: 2}}, Tracer: rec}
	rounds := 0
	res := mustRun(t, cfg, onSchedule{sched.Greedy{}, func(st *sched.State) {
		rounds++
		bws := []float64{st.PredictUploadBW(st.Now), st.PredictDownloadBW(st.Now)}
		for _, rs := range st.RemoteSites {
			bws = append(bws, rs.PredictUploadBW(st.Now), rs.PredictDownloadBW(st.Now))
		}
		if len(bws) != 4 || slices.ContainsFunc(bws, func(bw float64) bool { return !(bw > 0) }) {
			t.Fatalf("round %d predicts bandwidths %v, want four positive", rounds, bws)
		}
	}}, g.Generate())
	if rounds != 4 {
		t.Fatalf("%d scheduling rounds, want 4", rounds)
	}

	placements, lastBatch := 0, 0
	phases := map[int][]trace.Event{} // bursted job ID -> its EC phase events
	site := map[int]int{}
	for _, ev := range rec.Events() {
		switch ev.Type {
		case trace.PlacementDecided:
			if ev.Batch < lastBatch {
				t.Fatalf("batch %d placed after batch %d", ev.Batch, lastBatch)
			}
			lastBatch = ev.Batch
			placements++
			if ev.Where == "EC" {
				site[ev.JobID] = ev.Site
			}
		case trace.UploadStart, trace.UploadEnd, trace.DownloadStart, trace.DownloadEnd:
			phases[ev.JobID] = append(phases[ev.JobID], ev)
		case trace.JobDelivered:
			if ev.Where == "EC" {
				phases[ev.JobID] = append(phases[ev.JobID], ev)
			}
		}
	}
	if lastBatch != 3 {
		t.Fatalf("last placed batch %d, want 3", lastBatch)
	}
	if placements != res.Jobs {
		t.Fatalf("placements %d != jobs %d", placements, res.Jobs)
	}
	burstedJobs := int(res.BurstRatio*float64(res.Jobs) + 0.5)
	if len(phases) != burstedJobs || len(site) != burstedJobs {
		t.Fatalf("EC journeys %d, EC placements %d, bursted %d", len(phases), len(site), burstedJobs)
	}
	want := []trace.EventType{trace.UploadStart, trace.UploadEnd, trace.DownloadStart, trace.DownloadEnd, trace.JobDelivered}
	perSite := make([]int, 2)
	for id, evs := range phases {
		if len(evs) != len(want) {
			t.Fatalf("job %d: %d EC phase events, want %d: %+v", id, len(evs), len(want), evs)
		}
		for i, ev := range evs {
			if ev.Type != want[i] || ev.Site != site[id] || (i > 0 && ev.T < evs[i-1].T) {
				t.Fatalf("job %d at site %d: EC phases out of order: %+v", id, site[id], evs)
			}
		}
		perSite[site[id]]++
	}
	if perSite[0] == 0 || perSite[1] == 0 || perSite[1] != res.SiteBursts[0] {
		t.Fatalf("bursts per site %v, remote site reports %d", perSite, res.SiteBursts[0])
	}
}

// TestEngineTunersKeepNoHistory pins that an engine's thread tuners record
// no history: nothing in the engine reads it, and in a serve it would grow
// with served time. Both a finite run and a 6 h serve, with a remote site,
// leave every tuner's history empty.
func TestEngineTunersKeepNoHistory(t *testing.T) {
	check := func(name string, e *Engine) {
		var tuners []*netsim.Tuner
		for _, s := range e.sites {
			tuners = append(tuners, s.upTuner, s.downTuner)
		}
		for i, tu := range tuners {
			if n := len(tu.History()); n != 0 {
				t.Errorf("%s: tuner %d holds %d history samples, want 0", name, i, n)
			}
		}
	}
	cfg := Config{NetSeed: 43, RemoteSites: []RemoteSiteConfig{{Machines: 2}}}
	e := newFiniteEngine(t, cfg, sched.OrderPreserving{})
	if _, err := e.run(context.Background(), smallWorkload(workload.UniformMix, 42)); err != nil {
		t.Fatal(err)
	}
	check("run", e)

	_, served, err := serve(context.Background(), cfg, sched.OrderPreserving{}, testStream(7),
		StreamConfig{Window: 600, Duration: 6 * 3600})
	if err != nil {
		t.Fatal(err)
	}
	check("serve", served)
}
