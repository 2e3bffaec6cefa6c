package engine

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"testing"

	"cloudburst/internal/job"
	"cloudburst/internal/qrsm"
	"cloudburst/internal/sched"
	"cloudburst/internal/sla"
	"cloudburst/internal/window"
	"cloudburst/internal/workload"
)

// modelCensus is one QRSM's fit history: factorizations run, samples held
// and the settled R² bits.
type modelCensus struct {
	fits, samples int
	r2            uint64
}

// census lists the engine's models, the global one first.
func census(e *Engine) []modelCensus {
	ms := []*qrsm.Model{e.estimator.GlobalModel()}
	for c := range job.NumClasses {
		ms = append(ms, e.estimator.ClassModel(job.Class(c)))
	}
	out := make([]modelCensus, len(ms))
	for i, m := range ms {
		out[i] = modelCensus{m.Factorizations(), m.NumSamples(), math.Float64bits(m.SettledR2())}
	}
	return out
}

// burstyStream is a diurnal stream with flash crowds: enough arrivals per
// batch that rounds start with several class refits pending.
func burstyStream(seed int64) *workload.Stream {
	return workload.MustNewStream(workload.StreamConfig{
		Bucket:           workload.UniformMix,
		BaseJobsPerBatch: 4,
		Seed:             seed,
		Burst:            &workload.BurstConfig{MeanGap: 1200, MeanDuration: 600},
	})
}

// TestPrepareFitsMatchReference is the exactness census: the optimized
// engine, which prepares each round's fits at once, must factor exactly
// the models the Reference path factors one estimate at a time, the same
// number of times, ending at the same R². Arena pooling is off so both
// sides bootstrap their own estimator instead of cloning a materialized
// prototype.
func TestPrepareFitsMatchReference(t *testing.T) {
	defer SetArenaPooling(SetArenaPooling(false))
	multi := Config{NetSeed: 43, Rescheduling: true, RemoteSites: []RemoteSiteConfig{{Machines: 2}}}
	cases := []struct {
		name  string
		cfg   Config
		sched func() sched.Scheduler
	}{
		{"greedy", Config{NetSeed: 43}, func() sched.Scheduler { return sched.Greedy{} }},
		{"op", Config{NetSeed: 43}, func() sched.Scheduler { return sched.OrderPreserving{} }},
		{"sibs", Config{NetSeed: 43}, func() sched.Scheduler { return &sched.SIBS{} }},
		{"op-multisite", multi, func() sched.Scheduler { return sched.OrderPreserving{} }},
	}
	batches := func() []workload.Batch {
		return workload.MustNewGenerator(workload.Config{Seed: 42}).Generate()
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opt := newFiniteEngine(t, tc.cfg, tc.sched())
			optRes, err := opt.run(context.Background(), batches())
			if err != nil {
				t.Fatal(err)
			}
			refCfg := tc.cfg
			refCfg.Reference = true
			ref := newFiniteEngine(t, refCfg, tc.sched())
			refRes, err := ref.run(context.Background(), batches())
			if err != nil {
				t.Fatal(err)
			}
			if got, want := census(opt), census(ref); !reflect.DeepEqual(got, want) {
				t.Fatalf("fit census diverged:\noptimized %+v\nreference %+v", got, want)
			}
			if math.Float64bits(optRes.QRSMR2) != math.Float64bits(refRes.QRSMR2) {
				t.Fatalf("QRSMR2 %v, reference %v", optRes.QRSMR2, refRes.QRSMR2)
			}
			if opt.prepares == 0 || ref.prepares != 0 {
				t.Fatalf("prepare passes: optimized %d (want > 0), reference %d (want 0)", opt.prepares, ref.prepares)
			}
		})
	}

	t.Run("op-serve-6h", func(t *testing.T) {
		sc := StreamConfig{Window: 600, Duration: 6 * 3600}
		optRes, opt, err := serve(context.Background(), Config{NetSeed: 7}, sched.OrderPreserving{}, burstyStream(7), sc)
		if err != nil {
			t.Fatal(err)
		}
		refRes, ref, err := serve(context.Background(), Config{NetSeed: 7, Reference: true}, sched.OrderPreserving{}, burstyStream(7), sc)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := census(opt), census(ref); !reflect.DeepEqual(got, want) {
			t.Fatalf("fit census diverged:\noptimized %+v\nreference %+v", got, want)
		}
		if optRes.Fingerprint != refRes.Fingerprint || math.Float64bits(optRes.QRSMR2) != math.Float64bits(refRes.QRSMR2) {
			t.Fatalf("fingerprint/R² %016x/%v, reference %016x/%v",
				optRes.Fingerprint, optRes.QRSMR2, refRes.Fingerprint, refRes.QRSMR2)
		}
		if opt.prepares == 0 {
			t.Fatal("the serve never prepared a round")
		}
	})

	// ICOnly estimates nothing, so it never prepares, even when idle pulls
	// burst its queued work and later snapshots estimate the uploads.
	for _, cfg := range []Config{{NetSeed: 43}, {NetSeed: 43, Rescheduling: true}} {
		e := newFiniteEngine(t, cfg, sched.ICOnly{})
		if _, err := e.run(context.Background(), batches()); err != nil {
			t.Fatal(err)
		}
		if e.prepares != 0 {
			t.Fatalf("ICOnly (rescheduling %v) made %d Prepare calls, want 0", cfg.Rescheduling, e.prepares)
		}
	}
}

// TestServeGOMAXPROCSInvariant pins determinism under concurrent refits:
// a serve whose rounds prepare several fits side by side, and finite runs
// of each estimating scheduler, must be bit-identical at GOMAXPROCS 1, 2
// and 8 — fingerprint, every window report, and the final reports.
func TestServeGOMAXPROCSInvariant(t *testing.T) {
	type outcome struct {
		fp, events uint64
		windows    []window.Report
		reports    []Result
		records    [][]sla.Record
	}
	keep := func(o *outcome, r *Result) {
		c := *r
		c.Records = nil
		o.reports = append(o.reports, c)
		o.records = append(o.records, r.Records.Records())
	}
	run := func(procs int) outcome {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		var o outcome
		sr := mustServe(t, Config{NetSeed: 5}, burstyStream(5), StreamConfig{
			Window:   600,
			Duration: 4 * 3600,
			OnWindow: func(r window.Report) { o.windows = append(o.windows, r) },
		})
		o.fp, o.events = sr.Fingerprint, sr.TraceEvents
		keep(&o, sr.Result)
		for _, s := range []sched.Scheduler{sched.Greedy{}, sched.OrderPreserving{}, &sched.SIBS{}} {
			res := mustRun(t, Config{NetSeed: 43}, s, workload.MustNewGenerator(workload.Config{Seed: 42}).Generate())
			keep(&o, res)
		}
		return o
	}
	want := run(1)
	for _, procs := range []int{2, 8} {
		if got := run(procs); !reflect.DeepEqual(got, want) {
			t.Fatalf("GOMAXPROCS %d diverged from GOMAXPROCS 1:\n got fp %016x/%d, %d windows\nwant fp %016x/%d, %d windows",
				procs, got.fp, got.events, len(got.windows), want.fp, want.events, len(want.windows))
		}
	}
}
