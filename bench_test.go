package cloudburst

// Benchmarks regenerating every table and figure of the paper's evaluation
// (one benchmark per artifact, via the internal experiment drivers), plus
// microbenchmarks of the core machinery and ablation benches for the
// design choices called out in DESIGN.md.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// Figure/table benches report the wall cost of regenerating the artifact;
// their outputs are printed once under -v via the experiments binary.

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"cloudburst/internal/engine"
	"cloudburst/internal/experiments"
	"cloudburst/internal/job"
	"cloudburst/internal/netsim"
	"cloudburst/internal/qrsm"
	"cloudburst/internal/sim"
	"cloudburst/internal/stats"
	"cloudburst/internal/workload"
)

// benchSeed keeps benchmark inputs fixed across iterations.
const benchSeed = 1

func benchTable(b *testing.B, f func(int64) (*experiments.Table, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		t, err := f(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if len(t.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// --- One benchmark per paper artifact ---

func BenchmarkFigure3QRSM(b *testing.B)       { benchTable(b, experiments.Figure3QRSM) }
func BenchmarkFigure4aTimeOfDay(b *testing.B) { benchTable(b, experiments.Figure4aTimeOfDay) }
func BenchmarkFigure4bThreads(b *testing.B)   { benchTable(b, experiments.Figure4bThreads) }
func BenchmarkFigure6Makespan(b *testing.B)   { benchTable(b, experiments.Figure6Makespan) }
func BenchmarkFigure7Completions(b *testing.B) {
	benchTable(b, experiments.Figure7Completions)
}
func BenchmarkFigure8LargeCompletions(b *testing.B) {
	benchTable(b, experiments.Figure8LargeCompletions)
}
func BenchmarkFigure9OOMetric(b *testing.B)    { benchTable(b, experiments.Figure9OOMetric) }
func BenchmarkFigure10RelativeOO(b *testing.B) { benchTable(b, experiments.Figure10RelativeOO) }

func BenchmarkTable1Metrics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ts, err := experiments.Table1Metrics(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if len(ts) != 2 {
			b.Fatal("want two Table I buckets")
		}
	}
}

func BenchmarkSIBSOptimization(b *testing.B) { benchTable(b, experiments.SIBSOptimization) }

// --- Ablation benches (design choices from DESIGN.md §5) ---

func BenchmarkAblationChunking(b *testing.B)    { benchTable(b, experiments.AblationChunking) }
func BenchmarkAblationSlackMargin(b *testing.B) { benchTable(b, experiments.AblationSlackMargin) }
func BenchmarkAblationGreedyTracking(b *testing.B) {
	benchTable(b, experiments.AblationGreedyTracking)
}
func BenchmarkAblationRescheduling(b *testing.B) {
	benchTable(b, experiments.AblationRescheduling)
}
func BenchmarkAblationQRSMNoise(b *testing.B) { benchTable(b, experiments.AblationQRSMNoise) }
func BenchmarkAblationEWMAAlpha(b *testing.B) { benchTable(b, experiments.AblationEWMAAlpha) }
func BenchmarkAblationSIBSGate(b *testing.B)  { benchTable(b, experiments.AblationSIBSGate) }

// --- End-to-end run benches per scheduler ---

func benchRun(b *testing.B, s SchedulerName, bucket BucketName) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r, err := Run(Options{
			Scheduler:    s,
			Bucket:       bucket,
			WorkloadSeed: benchSeed,
			NetSeed:      benchSeed,
		})
		if err != nil {
			b.Fatal(err)
		}
		if r.Jobs == 0 {
			b.Fatal("empty run")
		}
	}
}

// BenchmarkRunVerify prices the checking modes on the BenchmarkRunOp run:
// Plain, Verify (the runtime invariant checker watches every event) and
// Audit (the auditor folds every event and Report.Audit finishes it).
func BenchmarkRunVerify(b *testing.B) {
	modes := []struct {
		name          string
		verify, audit bool
	}{{"Plain", false, false}, {"Verify", true, false}, {"Audit", false, true}}
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := Run(Options{
					Scheduler:    OrderPreserving,
					Bucket:       Uniform,
					WorkloadSeed: benchSeed,
					NetSeed:      benchSeed,
					Verify:       m.verify,
					Audit:        m.audit,
				})
				if err != nil {
					b.Fatal(err)
				}
				if m.audit {
					if _, err := r.Audit(); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

func BenchmarkRunICOnly(b *testing.B)  { benchRun(b, ICOnly, Uniform) }
func BenchmarkRunGreedy(b *testing.B)  { benchRun(b, Greedy, Uniform) }
func BenchmarkRunOp(b *testing.B)      { benchRun(b, OrderPreserving, Uniform) }
func BenchmarkRunSIBS(b *testing.B)    { benchRun(b, SIBS, Uniform) }
func BenchmarkRunOpLarge(b *testing.B) { benchRun(b, OrderPreserving, Large) }

// BenchmarkShardedPlacement measures the optimistic commit loop on the
// acceptance-scale cell: a 2000-machine cluster, 4 shards, and enough EC
// demand that the commit phase arbitrates real collisions. Beyond the
// standard columns it reports placement throughput and the conflict rate,
// so a regression in either the shard rounds or the arbitration shows up
// in BENCH.json.
func BenchmarkShardedPlacement(b *testing.B) {
	o := Options{
		Scheduler:        Greedy,
		Bucket:           Uniform,
		Batches:          2,
		MeanJobsPerBatch: 2600,
		BatchIntervalSec: 30,
		ICMachines:       4,
		ECMachines:       1996,
		UploadMeanBW:     512 << 20,
		DownloadMeanBW:   512 << 20,
		WorkloadSeed:     benchSeed,
		NetSeed:          benchSeed,
		Shards:           &ShardOptions{Count: 4},
	}
	var jobs, conflicts int
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		r, err := Run(o)
		if err != nil {
			b.Fatal(err)
		}
		if r.Conflicts == 0 {
			b.Fatal("sharded bench cell produced no conflicts")
		}
		jobs += r.Jobs
		conflicts += r.Conflicts
	}
	elapsed := time.Since(start).Seconds()
	if elapsed > 0 {
		b.ReportMetric(float64(jobs)/elapsed, "placements/sec")
	}
	b.ReportMetric(float64(conflicts)/float64(jobs), "conflicts/placement")
}

// --- Core machinery microbenches ---

func BenchmarkSimEngine(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		count := 0
		var tick sim.Callback
		tick = func(float64, any) {
			count++
			if count < 10000 {
				eng.CallAfter(1, tick, nil)
			}
		}
		eng.CallAfter(1, tick, nil)
		eng.Run()
	}
}

func BenchmarkQRSMFit(b *testing.B) {
	fs, ys := workload.BootstrapSet(benchSeed, 300, 0.12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est := qrsm.NewEstimator()
		est.Bootstrap(fs, ys)
		if !est.GlobalModel().Fitted() {
			b.Fatal("fit failed")
		}
	}
}

func BenchmarkQRSMPredict(b *testing.B) {
	fs, ys := workload.BootstrapSet(benchSeed, 300, 0.12)
	est := qrsm.NewEstimator()
	est.Bootstrap(fs, ys)
	f := fs[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if est.Estimate(f) <= 0 {
			b.Fatal("bad estimate")
		}
	}
}

// BenchmarkQRSMRefitGrowing measures the streaming service's refit cadence:
// one op observes 25 completions, which triggers a Refit, then asks for one
// estimate, which materializes the deferred fit. Like a serve, each cycle
// of 16 ops starts from a fresh clone of the bootstrapped prototype, and
// its window grows by 25 samples per op from the 200-sample bootstrap to
// the 600 rows a day of serving reaches. The fit buffers grow with the
// window; their reallocations are what allocs/op counts.
func BenchmarkQRSMRefitGrowing(b *testing.B) {
	const perOp, opsPerCycle = 25, 16
	bfs, bys := workload.BootstrapSet(benchSeed, 200, 0.12)
	proto := qrsm.NewEstimator()
	proto.Bootstrap(bfs, bys)
	proto.Prepare(qrsm.AllClasses)
	fs, ys := workload.BootstrapSet(benchSeed+1, perOp*opsPerCycle, 0.12)
	var est *qrsm.Estimator
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % opsPerCycle
		if k == 0 {
			est = proto.CloneInto(nil)
		}
		for j := k * perOp; j < (k+1)*perOp; j++ {
			est.Observe(fs[j], ys[j])
		}
		if est.Estimate(fs[k]) <= 0 {
			b.Fatal("bad estimate")
		}
	}
}

// BenchmarkEstimatorPrepare is the layer rung for a serve round's refits:
// six class models, each with a fit pending over a ~420-row window, the
// shape of a busy serve-diurnal batch. Sequential materializes them one
// estimate at a time, as the lazy path does; Prepare fits them side by
// side first. Every op clones the pending prototype and then estimates one
// job of each class.
func BenchmarkEstimatorPrepare(b *testing.B) {
	fs, ys := workload.BootstrapSet(benchSeed, 420*job.NumClasses, 0.12)
	proto := qrsm.NewEstimator()
	proto.Bootstrap(fs, ys)
	probes := make([]job.Features, job.NumClasses)
	var mask uint64
	for c := range probes {
		probes[c] = fs[c]
		probes[c].Class = job.Class(c)
		mask |= qrsm.ClassBit(job.Class(c))
	}
	for _, prepare := range []bool{false, true} {
		name := "Sequential"
		if prepare {
			name = "Prepare"
		}
		b.Run(name, func(b *testing.B) {
			var est *qrsm.Estimator
			for i := 0; i < b.N; i++ {
				est = proto.CloneInto(est)
				if prepare {
					est.Prepare(mask)
				}
				for _, f := range probes {
					if est.Estimate(f) <= 0 {
						b.Fatal("bad estimate")
					}
				}
			}
		})
	}
}

func BenchmarkLinkTransfers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		link := netsim.NewLink(eng, netsim.LinkConfig{
			Profile:  netsim.DiurnalProfile(600*1024, 0.3),
			JitterCV: 0.15,
		}, stats.NewRNG(benchSeed))
		done := 0
		for k := 0; k < 200; k++ {
			link.Start("t", 1<<20, 8, func(float64, *netsim.Transfer) { done++ })
		}
		eng.RunUntil(1e6)
		if done != 200 {
			b.Fatalf("done = %d", done)
		}
	}
}

func BenchmarkWorkloadGenerate(b *testing.B) {
	g := workload.MustNewGenerator(workload.Config{Seed: benchSeed})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if workload.TotalJobs(g.Generate()) == 0 {
			b.Fatal("empty workload")
		}
	}
}

// BenchmarkRNGSeed prices seeding one random stream, which every run does
// eight times: math/rand's source (the reference stats.RNG reproduces draw
// for draw), a fresh stats.NewRNG, and an in-place Reset, as run arenas and
// workload generation reseed their streams.
func BenchmarkRNGSeed(b *testing.B) {
	b.Run("MathRand", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sourceSink = rand.NewSource(int64(i))
		}
	})
	b.Run("NewRNG", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rngSink = stats.NewRNG(int64(i))
		}
	})
	b.Run("Reset", func(b *testing.B) {
		b.ReportAllocs()
		g := new(stats.RNG)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g.Reset(int64(i))
		}
		rngSink = g
	})
}

var (
	sourceSink rand.Source
	rngSink    *stats.RNG
)

func BenchmarkOOMetric(b *testing.B) {
	r, err := Run(Options{Scheduler: Greedy, WorkloadSeed: benchSeed, NetSeed: benchSeed})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(r.OOSeries()) == 0 {
			b.Fatal("empty series")
		}
	}
}

// --- Extension benches (the paper's future-work directions) ---

func BenchmarkExtensionAutoscale(b *testing.B) { benchTable(b, experiments.ExtensionAutoscale) }
func BenchmarkExtensionTickets(b *testing.B)   { benchTable(b, experiments.ExtensionTickets) }
func BenchmarkExtensionMultiEC(b *testing.B)   { benchTable(b, experiments.ExtensionMultiEC) }
func BenchmarkAblationOutages(b *testing.B)    { benchTable(b, experiments.AblationOutages) }

func BenchmarkRunMultiEC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := Run(Options{
			Scheduler:    OrderPreserving,
			WorkloadSeed: benchSeed,
			NetSeed:      benchSeed,
			ExtraECSites: []ECSiteSpec{{Machines: 2}},
		})
		if err != nil {
			b.Fatal(err)
		}
		if r.Jobs == 0 {
			b.Fatal("empty run")
		}
	}
}

func BenchmarkRunAutoscaled(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := Run(Options{
			Scheduler:      OrderPreserving,
			WorkloadSeed:   benchSeed,
			NetSeed:        benchSeed,
			ECMachines:     1,
			AutoscaleECMax: 6,
		})
		if err != nil {
			b.Fatal(err)
		}
		if r.ECMachineSeconds <= 0 {
			b.Fatal("no rental accounting")
		}
	}
}

// --- Sweep throughput (the headline number) ---

// sweepCellsSpec is a 3 schedulers × 3 buckets × 4 seeds grid — 36
// distinct cells, nothing dedupable — of short scenario runs (3 batches,
// ~6 jobs each). Short cells are the regime the scenario-sweep and
// metamorphic suites live in, where per-cell setup (bootstrap refit,
// seeding eight RNG streams, graph construction) dominates the simulated
// work. Arena pooling amortizes most of it: a cloned bootstrap prototype,
// and network streams reseeded in place. Workload generation reseeds its
// pooled streams in both benchmarks, so their ratio leaves that saving
// out. Longer paper-testbed cells are covered by the BenchmarkRun* and
// table benches.
func sweepCellsSpec() SweepSpec {
	return SweepSpec{
		Schedulers:       []string{string(Greedy), string(OrderPreserving), string(SIBS)},
		Buckets:          []string{string(Small), string(Uniform), string(Large)},
		SeedCount:        4,
		BaseSeed:         benchSeed,
		Batches:          3,
		MeanJobsPerBatch: 6,
	}
}

func benchSweepCells(b *testing.B, pooled bool) {
	b.Helper()
	prev := engine.SetArenaPooling(pooled)
	defer engine.SetArenaPooling(prev)
	spec := sweepCellsSpec()
	cells := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := Sweep(spec)
		if err != nil {
			b.Fatal(err)
		}
		if len(rs) != 36 {
			b.Fatalf("cells = %d, want 36", len(rs))
		}
		cells += len(rs)
	}
	b.ReportMetric(float64(cells)/b.Elapsed().Seconds(), "cells/sec")
}

// BenchmarkSweepCells measures sweep throughput in cells/sec over the full
// concurrent sweep engine with arena pooling on (the default): every cell
// reuses a pooled simulation arena and a cloned bootstrap prototype.
func BenchmarkSweepCells(b *testing.B) { benchSweepCells(b, true) }

// BenchmarkSweepCellsNoReuse runs the identical grid with arena pooling
// and the bootstrap prototype cache disabled — the no-reuse baseline the
// arena speedup is measured against. Results are bit-identical to
// BenchmarkSweepCells; only the allocation story differs.
func BenchmarkSweepCellsNoReuse(b *testing.B) { benchSweepCells(b, false) }

// BenchmarkStreamingWindow serves one virtual hour of diurnal arrivals with
// six rolling windows — the cost of a streamed slice of service time,
// window bookkeeping and report delivery included.
func BenchmarkStreamingWindow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		svc, err := Serve(context.Background(), ServiceOptions{
			Options: Options{
				Scheduler:    OrderPreserving,
				WorkloadSeed: benchSeed,
				NetSeed:      benchSeed,
			},
			DurationSec: 3600,
			WindowSec:   600,
		})
		if err != nil {
			b.Fatal(err)
		}
		windows := 0
		for range svc.Reports() {
			windows++
		}
		rep, err := svc.Wait()
		if err != nil {
			b.Fatal(err)
		}
		if windows == 0 || rep.Fed == 0 {
			b.Fatalf("empty service: %d windows, %d fed", windows, rep.Fed)
		}
	}
}

// BenchmarkServeSteadyState measures the streaming service's steady-state
// cost — six virtual hours of diurnal arrivals under rolling ten-minute
// windows, long enough that startup (bootstrap, first fits) amortizes away
// and the per-window bookkeeping dominates.
func BenchmarkServeSteadyState(b *testing.B) {
	for i := 0; i < b.N; i++ {
		svc, err := Serve(context.Background(), ServiceOptions{
			Options: Options{
				Scheduler:    OrderPreserving,
				WorkloadSeed: benchSeed,
				NetSeed:      benchSeed,
			},
			DurationSec: 6 * 3600,
			WindowSec:   600,
		})
		if err != nil {
			b.Fatal(err)
		}
		windows := 0
		for range svc.Reports() {
			windows++
		}
		rep, err := svc.Wait()
		if err != nil {
			b.Fatal(err)
		}
		if windows < 30 || rep.Fed == 0 {
			b.Fatalf("short service: %d windows, %d fed", windows, rep.Fed)
		}
	}
}
