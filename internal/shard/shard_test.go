package shard_test

import (
	"math"
	"math/rand"
	"testing"

	"cloudburst/internal/job"
	"cloudburst/internal/sched"
	"cloudburst/internal/shard"
)

func TestPartitionerDeterministicAndInRange(t *testing.T) {
	p := shard.NewPartitioner(42, 5)
	q := shard.NewPartitioner(42, 5)
	hits := make([]int, 5)
	for id := 0; id < 4096; id++ {
		s := p.Shard(id)
		if s != q.Shard(id) {
			t.Fatalf("partitioner not deterministic at id %d", id)
		}
		if s < 0 || s >= 5 {
			t.Fatalf("shard %d out of range for id %d", s, id)
		}
		hits[s]++
	}
	for s, n := range hits {
		// A uniform hash puts ~819 of 4096 ids on each of 5 shards; a
		// starved or overloaded shard means the mix degenerated.
		if n < 512 || n > 1229 {
			t.Fatalf("shard %d got %d of 4096 ids — partition badly skewed: %v", s, n, hits)
		}
	}
}

func TestPartitionerSeedChangesAssignment(t *testing.T) {
	a := shard.NewPartitioner(1, 4)
	b := shard.NewPartitioner(2, 4)
	moved := 0
	for id := 0; id < 256; id++ {
		if a.Shard(id) != b.Shard(id) {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("different seeds produced identical partitions")
	}
}

func TestPartitionerSingleShard(t *testing.T) {
	p := shard.NewPartitioner(7, 1)
	for id := 0; id < 64; id++ {
		if p.Shard(id) != 0 {
			t.Fatalf("single-shard partitioner sent id %d to shard %d", id, p.Shard(id))
		}
	}
}

// burstAll is a stub scheduler that bursts every job to the primary EC —
// the worst case for slot contention.
type burstAll struct{}

func (burstAll) Name() string { return "burstAll" }

func (burstAll) Schedule(batch []*job.Job, st *sched.State, alloc job.IDAllocator) []sched.Decision {
	out := make([]sched.Decision, len(batch))
	for i, j := range batch {
		out[i] = sched.Decision{Job: j, Place: sched.PlaceEC, EstProcStd: j.TrueProcTime}
	}
	return out
}

func mkJobs(n int) []*job.Job {
	rng := rand.New(rand.NewSource(11))
	jobs := make([]*job.Job, n)
	for i := range jobs {
		jobs[i] = &job.Job{
			ID: i + 1, ParentID: -1,
			InputSize: 1 << 20, OutputSize: 1 << 19,
			TrueProcTime: 10 + 5*rng.Float64(),
		}
	}
	return jobs
}

func snapshot(freeEC []int) *shard.Snapshot {
	return &shard.Snapshot{
		State: &sched.State{
			Now: 0, ICMachines: 4, ICSpeed: 1, ECMachines: len(freeEC), ECSpeed: 1,
			UploadChannels:    1,
			PredictUploadBW:   func(float64) float64 { return 1 << 20 },
			PredictDownloadBW: func(float64) float64 { return 1 << 20 },
			EstimateProc:      func(job.Features) float64 { return 10 },
		},
		FreeEC: freeEC,
		Epoch:  1,
	}
}

func newCoord(cfg shard.Config) *shard.Coordinator {
	return shard.NewCoordinator(cfg, func() sched.Scheduler { return burstAll{} })
}

func TestRoundSerialFallbackCommitsEverything(t *testing.T) {
	c := newCoord(shard.Config{Count: 4, Seed: 1})
	jobs := mkJobs(12)
	outs := c.Round(jobs, snapshot([]int{0}), 1, false, job.NewCounter(100))
	if len(outs) != len(jobs) {
		t.Fatalf("serial round returned %d outcomes for %d jobs", len(outs), len(jobs))
	}
	for _, o := range outs {
		if !o.Won {
			t.Fatalf("serial fallback produced a loser: %+v", o)
		}
	}
}

func TestRoundDetectsMachineCollisions(t *testing.T) {
	// 12 EC-hungry jobs over 4 shards against 2 free slots: the aggregate
	// demand wraps every shard's claim sequence onto the same two slots, so
	// collisions are guaranteed.
	c := newCoord(shard.Config{Count: 4, Seed: 1})
	jobs := mkJobs(12)
	outs := c.Round(jobs, snapshot([]int{100, 101}), 4, true, job.NewCounter(100))
	if len(outs) != len(jobs) {
		t.Fatalf("round returned %d outcomes for %d jobs", len(outs), len(jobs))
	}
	wins, losses := 0, 0
	claimed := map[int]bool{}
	for _, o := range outs {
		if o.Won {
			wins++
			if o.Machine >= 0 {
				if claimed[o.Machine] {
					t.Fatalf("machine %d committed twice in one round", o.Machine)
				}
				claimed[o.Machine] = true
			}
			continue
		}
		losses++
		if o.Machine < 0 && !o.Budget {
			t.Fatalf("loser carries no conflict reason: %+v", o)
		}
	}
	if losses == 0 {
		t.Fatal("overlapping claims produced no conflicts")
	}
	if len(claimed) != 2 {
		t.Fatalf("expected both free slots claimed, got %v", claimed)
	}
}

func TestRoundDisjointIsConflictFree(t *testing.T) {
	c := newCoord(shard.Config{Count: 4, Seed: 1, Disjoint: true})
	jobs := mkJobs(32)
	free := make([]int, 8)
	for i := range free {
		free[i] = 100 + i
	}
	outs := c.Round(jobs, snapshot(free), 4, true, job.NewCounter(100))
	claimed := map[int]bool{}
	for _, o := range outs {
		if !o.Won {
			t.Fatalf("disjoint round produced a conflict: %+v", o)
		}
		if o.Machine >= 0 {
			if claimed[o.Machine] {
				t.Fatalf("machine %d claimed twice", o.Machine)
			}
			claimed[o.Machine] = true
		}
	}
	if len(claimed) != len(free) {
		t.Fatalf("disjoint round claimed %d of %d slots", len(claimed), len(free))
	}
}

func TestRoundBudgetOverCommit(t *testing.T) {
	c := newCoord(shard.Config{Count: 2, Seed: 1})
	jobs := mkJobs(6)
	snap := snapshot([]int{100, 101, 102, 103, 104, 105})
	snap.BudgetArmed = true
	snap.Charge = func(estStd float64) float64 { return 1 }
	snap.Remaining = 2.5 // room for two unit charges, not three
	outs := c.Round(jobs, snap, 2, true, job.NewCounter(100))
	wins, budgetLosses := 0, 0
	for _, o := range outs {
		switch {
		case o.Won:
			wins++
		case o.Budget:
			budgetLosses++
		}
	}
	if wins != 2 {
		t.Fatalf("budget of 2.5 unit charges admitted %d bursts", wins)
	}
	if budgetLosses != 4 {
		t.Fatalf("expected 4 budget losers, got %d", budgetLosses)
	}
}

// TestRoundMergeMatchesSerialPartitions is the coordinator-level metamorphic
// property: with a disjoint slot partition, the round must produce exactly
// the decisions fresh scheduler instances produce on the same partitions —
// same totals to 1e-9 — across seeds and scheduler families.
func TestRoundMergeMatchesSerialPartitions(t *testing.T) {
	factories := map[string]func() sched.Scheduler{
		"Greedy": func() sched.Scheduler { return sched.Greedy{} },
		"Op":     func() sched.Scheduler { return sched.OrderPreserving{} },
		"SIBS":   func() sched.Scheduler { return &sched.SIBS{} },
	}
	for name, factory := range factories {
		for _, seed := range []int64{1, 2, 3} {
			t.Run(name, func(t *testing.T) {
				const n = 4
				cfg := shard.Config{Count: n, Seed: seed, Disjoint: true}
				c := shard.NewCoordinator(cfg, factory)
				rng := rand.New(rand.NewSource(seed))
				jobs := make([]*job.Job, 24)
				for i := range jobs {
					jobs[i] = &job.Job{
						ID: i + 1, ParentID: -1,
						InputSize:    int64(1+rng.Intn(8)) << 20,
						OutputSize:   int64(1+rng.Intn(4)) << 19,
						TrueProcTime: 5 + 20*rng.Float64(),
						Features:     job.Features{SizeMB: float64(1 + rng.Intn(8))},
					}
				}
				snap := snapshot([]int{100, 101, 102, 103})

				// Coordinated round.
				outs := c.Round(jobs, snap, n, true, job.NewCounter(len(jobs)+1))
				gotProc, gotEC := 0.0, 0
				for _, o := range outs {
					if !o.Won {
						t.Fatalf("disjoint round conflicted: %+v", o)
					}
					gotProc += o.D.EstProcStd
					if o.D.Place == sched.PlaceEC {
						gotEC++
					}
				}

				// Reference: fresh scheduler instances over the same hash
				// partition, scheduled outside the coordinator.
				parts := make([][]*job.Job, n)
				p := c.Partitioner()
				for _, j := range jobs {
					s := p.Shard(j.ID) % n
					parts[s] = append(parts[s], j)
				}
				wantProc, wantEC, total := 0.0, 0, 0
				for s := 0; s < n; s++ {
					ref := factory()
					for _, d := range ref.Schedule(parts[s], snap.State, job.NewCounter(1<<30)) {
						wantProc += d.EstProcStd
						if d.Place == sched.PlaceEC {
							wantEC++
						}
						total++
					}
				}
				if total != len(outs) {
					t.Fatalf("decision count %d != serial reference %d", len(outs), total)
				}
				if gotEC != wantEC {
					t.Fatalf("EC placements %d != serial reference %d", gotEC, wantEC)
				}
				if math.Abs(gotProc-wantProc) > 1e-9 {
					t.Fatalf("total estimated proc %v != serial reference %v", gotProc, wantProc)
				}
			})
		}
	}
}

func TestRoundDeterministicAcrossRuns(t *testing.T) {
	run := func() []shard.Outcome {
		c := newCoord(shard.Config{Count: 4, Seed: 9})
		return c.Round(mkJobs(16), snapshot([]int{100, 101, 102}), 4, true, job.NewCounter(100))
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("outcome counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].D.Job.ID != b[i].D.Job.ID || a[i].Won != b[i].Won ||
			a[i].Machine != b[i].Machine || a[i].Shard != b[i].Shard {
			t.Fatalf("outcome %d differs between identical rounds:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}
