package engine

// The reuse safety story for run arenas, in three layers:
//
//  1. release scrubs everything — what survives in a pooled arena is
//     capacity, never values (TestReleaseScrubsArena);
//  2. reused arenas are bit-identical to fresh ones — a warm recycled
//     arena, a cold arena and a pooling-off run produce the same result
//     to the last bit, even when the arena's last run drew its network
//     streams from another seed (TestArenaReuseBitIdentical);
//  3. if a scrub were ever botched, it could not fail silently — the
//     independent invariant checker catches leaked state the moment it
//     touches the event stream (TestDirtyArenaCaughtByInvariantChecker),
//     and the sim clock's monotonicity panic catches an un-Reset engine
//     at the very first schedule of the next run.

import (
	"context"
	"testing"

	"cloudburst/internal/invariant"
	"cloudburst/internal/job"
	"cloudburst/internal/netsim"
	"cloudburst/internal/sched"
	"cloudburst/internal/sla"
	"cloudburst/internal/workload"
)

// arenaFingerprint is an exact-equality scalar summary of one run.
type arenaFingerprint struct {
	makespan, speedup, burst, compSum float64
	jobs, chunks                      int
}

func fingerprintRun(t *testing.T, chk *invariant.Checker) arenaFingerprint {
	t.Helper()
	// A thin downlink, so that its jitter stream moves the result as the
	// uplink's does; at the default width downloads are thread-limited.
	cfg := Config{NetSeed: 43, DownloadProfile: netsim.DiurnalProfile(120*1024, 0.3)}
	if chk != nil {
		cfg.Tracer = chk
	}
	g, err := workload.NewGenerator(workload.Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(cfg, sched.OrderPreserving{}, g.Generate())
	if err != nil {
		t.Fatal(err)
	}
	fp := arenaFingerprint{
		makespan: res.Makespan,
		speedup:  res.Speedup,
		burst:    res.BurstRatio,
		jobs:     res.Jobs,
		chunks:   res.ChunksCreated,
	}
	for _, r := range res.Records.Records() {
		fp.compSum += r.CompletedAt
	}
	return fp
}

func TestArenaReuseBitIdentical(t *testing.T) {
	prev := SetArenaPooling(false)
	defer SetArenaPooling(prev)
	fresh := fingerprintRun(t, nil)

	SetArenaPooling(true)
	cold := fingerprintRun(t, nil) // arena from the pool, possibly recycled
	warm := fingerprintRun(t, nil) // arena recycled from the run above

	// The arena's network streams are reseeded in place. Leave them on
	// another seed, drawn further by outages, right before the next warm
	// run: an incomplete reseed would change its draws.
	g, err := workload.NewGenerator(workload.Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	outages := &netsim.OutageModel{MeanTimeBetween: 240, MeanDuration: 60}
	if _, err := Run(Config{NetSeed: 9, Outages: outages}, sched.OrderPreserving{}, g.Generate()); err != nil {
		t.Fatal(err)
	}
	reseeded := fingerprintRun(t, nil)

	// Exact equality, not tolerance: reuse must be invisible.
	if cold != fresh || warm != fresh || reseeded != fresh {
		t.Fatalf("arena reuse changed the run:\n  fresh    %+v\n  cold     %+v\n  warm     %+v\n  reseeded %+v",
			fresh, cold, warm, reseeded)
	}

	// The same warm run under the independent auditor: clean.
	chk := invariant.New()
	audited := fingerprintRun(t, chk)
	if audited != fresh {
		t.Fatalf("audited warm run diverged: %+v vs %+v", audited, fresh)
	}
	if vs := chk.Finish(); len(vs) != 0 {
		t.Fatalf("invariant violations on warm arena run: %v", vs)
	}
}

// newFiniteEngine builds the engine RunContext would drive, so a test can
// reach into it before and after e.run.
func newFiniteEngine(t *testing.T, cfg Config, s sched.Scheduler) *Engine {
	t.Helper()
	cfg, err := prepareConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e, err := newEngine(cfg, s, cfg.Tracer, false)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestReleaseScrubsArena(t *testing.T) {
	prev := SetArenaPooling(true)
	defer SetArenaPooling(prev)

	g, err := workload.NewGenerator(workload.Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	e := newFiniteEngine(t, Config{NetSeed: 43}, sched.OrderPreserving{})
	a := e.arena
	if a == nil {
		t.Fatal("optimized run did not use an arena")
	}
	if _, err := e.run(context.Background(), g.Generate()); err != nil {
		t.Fatal(err)
	}

	// Values are gone; only capacity remains.
	if n := len(a.states); n != 0 {
		t.Errorf("released arena keeps %d state slots", n)
	}
	for i, js := range a.states[:cap(a.states)] {
		if js != nil {
			t.Fatalf("released arena: states backing array slot %d not nil", i)
		}
	}
	if n := len(a.estCache); n != 0 {
		t.Errorf("released arena keeps %d estimate-cache slots", n)
	}
	for i, ent := range a.estCache[:cap(a.estCache)] {
		if ent != (estEntry{}) {
			t.Fatalf("released arena: estCache backing array slot %d not zero (stale (job,version) pairs collide across runs)", i)
		}
	}
	if a.eng.Now() != 0 || a.eng.Pending() != 0 {
		t.Errorf("released arena engine not reset: now=%v pending=%d", a.eng.Now(), a.eng.Pending())
	}
	if a.pageIdx != 0 || a.slot != 0 {
		t.Errorf("released arena slab cursor not rewound: page=%d slot=%d", a.pageIdx, a.slot)
	}
}

// TestDirtyArenaCaughtByInvariantChecker seeds the exact failure mode
// release() exists to prevent — an event from a previous run surviving into
// the next — and shows the layered defenses catch it. A rogue pending
// delivery (the kind of leftover a botched engine Reset would leak) fires
// mid-run and completes a job this run never admitted; the engine's own
// accounting happily absorbs it, which is precisely why the independent
// checker exists: it flags both the phantom delivery and the real job the
// early-terminated run abandoned.
func TestDirtyArenaCaughtByInvariantChecker(t *testing.T) {
	chk := invariant.New()
	cfg := Config{NetSeed: 43, Tracer: chk}
	g, err := workload.NewGenerator(workload.Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	stale := &jobState{
		j:   &job.Job{ID: 424242, ParentID: -1, OutputSize: 777},
		seq: 100000, // unique: a colliding seq would trip sla.MustAdd's dedup panic instead
	}
	e := newFiniteEngine(t, cfg, sched.OrderPreserving{})
	e.eng.CallAfter(40, func(now float64, arg any) { e.complete(stale, now, sla.EC) }, nil)
	if _, err := e.run(context.Background(), g.Generate()); err != nil {
		t.Fatal(err)
	}
	var phantom, abandoned bool
	for _, v := range chk.Finish() {
		if v.Invariant == "job-lifecycle" {
			switch {
			case v.JobID == stale.j.ID:
				phantom = true // delivered without arrival or placement
			case v.Detail == "job placed but never delivered":
				abandoned = true // the real job the phantom completion displaced
			}
		}
	}
	if !phantom {
		t.Error("checker missed the phantom delivery from the stale event")
	}
	if !abandoned {
		t.Error("checker missed the real job abandoned by the early-terminating run")
	}
}
