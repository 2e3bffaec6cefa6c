// Package shard implements shared-state optimistic scheduling in the
// style of arktos' global scheduler: N scheduler instances place jobs
// against one snapshot of cluster state, each consuming a hash partition of
// the arrival stream, and a deterministic commit phase detects placement
// collisions — two shards claiming the same idle machine slot, or the
// fleet's EC budget over-committed by the sum of individually-admitted
// bursts. Losers re-enter the next round against a refreshed snapshot;
// conflicts, re-placements and commit retries are first-class metrics.
//
// The package models speculative placement, not parallel speed-up: shards
// schedule one after another, in shard index order, on the caller's
// goroutine, and none sees another's decisions before the commit. That
// order is also the merge order, so a sharded run is bit-reproducible by
// construction.
package shard

import (
	"cloudburst/internal/job"
	"cloudburst/internal/sched"
)

// Config parameterizes the sharded placement path.
type Config struct {
	// Count is the number of scheduler shards; <= 1 disables sharding
	// entirely (the engine keeps its monolithic path).
	Count int
	// Disjoint partitions the claimable machine slots into per-shard
	// contiguous ranges instead of overlapping claim sequences, making
	// rounds structurally conflict-free (used by the metamorphic suite).
	Disjoint bool
	// Seed drives the arrival-stream partitioner. Derive it with
	// sweep.DeriveSeed(baseSeed, "shard-partition") so paired comparisons
	// share partition realizations.
	Seed int64
	// MaxRetries bounds the optimistic re-placement rounds per batch;
	// after that many conflicted rounds the coordinator falls back to one
	// serial round with conflict detection off, which always terminates.
	MaxRetries int
}

// Partitioner deterministically assigns jobs to shards by hashed ID, so
// the same workload always splits the same way for a given seed.
type Partitioner struct {
	seed  uint64
	count int
}

// NewPartitioner builds a partitioner over count shards.
func NewPartitioner(seed int64, count int) Partitioner {
	if count < 1 {
		count = 1
	}
	return Partitioner{seed: uint64(seed), count: count}
}

// Shard maps a job ID to its shard index via a splitmix64-style mix of
// the seeded identity — cheap, stateless and uniform.
func (p Partitioner) Shard(jobID int) int {
	x := uint64(jobID)*0x9E3779B97F4A7C15 ^ p.seed
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int(x % uint64(p.count))
}

// Snapshot is the system view one placement round runs against. No shard
// changes it, so every shard places against the same cluster state.
type Snapshot struct {
	// State is the scheduler-observable state every shard reads. Its
	// EstimateJob memo may be set: a memoized estimate equals the direct
	// one, so the order the shards consult it in changes no value.
	State *sched.State
	// FreeEC lists the primary-EC machine IDs idle at snapshot time, in
	// dispatch order. These are the claimable slots of the round.
	FreeEC []int
	// Epoch is the monotone snapshot counter; committed decisions carry it
	// so the auditor can replay the conflict history exactly.
	Epoch int
	// BudgetArmed turns on budget over-commit detection. Charge quotes the
	// committed cost of a burst (the meter's own pure quote function) and
	// Remaining is the budget left at snapshot time.
	BudgetArmed bool
	Charge      func(estStd float64) float64
	Remaining   float64
}

// Outcome is one decision's fate in a commit round, in deterministic
// merge order (shard index, then the shard's own decision order).
type Outcome struct {
	D     sched.Decision
	Shard int // 0-based shard index that produced the decision
	// Won reports whether the decision committed. Losers carry the reason:
	// a machine collision (Machine is the contested slot) or a budget
	// over-commit (Budget true).
	Won     bool
	Machine int // claimed primary-EC machine ID for wins; contested ID for machine conflicts; -1 when queued or not EC
	Budget  bool
}

// Coordinator owns the per-shard scheduler instances (schedulers like SIBS
// carry state across batches, so each shard keeps its own) and runs
// placement rounds: partition, speculative schedule, deterministic commit.
type Coordinator struct {
	cfg    Config
	parts  Partitioner
	scheds []sched.Scheduler

	// Conflict-scan scratch, reused across rounds.
	claims map[int]bool
	outs   [][]sched.Decision
}

// NewCoordinator builds Count scheduler instances from the factory.
func NewCoordinator(cfg Config, newScheduler func() sched.Scheduler) *Coordinator {
	if cfg.Count < 1 {
		cfg.Count = 1
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 2
	}
	c := &Coordinator{
		cfg:    cfg,
		parts:  NewPartitioner(cfg.Seed, cfg.Count),
		scheds: make([]sched.Scheduler, cfg.Count),
		claims: make(map[int]bool),
		outs:   make([][]sched.Decision, cfg.Count),
	}
	for i := range c.scheds {
		c.scheds[i] = newScheduler()
	}
	return c
}

// Count returns the configured shard count.
func (c *Coordinator) Count() int { return c.cfg.Count }

// MaxRetries returns the optimistic round budget before serial fallback.
func (c *Coordinator) MaxRetries() int { return c.cfg.MaxRetries }

// Partitioner exposes the stream partitioner (for tests and diagnostics).
func (c *Coordinator) Partitioner() Partitioner { return c.parts }

// Bounds scans the shard schedulers in index order and returns the first
// valid size-interval bounds, mirroring the monolithic SIBS publish.
func (c *Coordinator) Bounds() (sBound, mBound int64, ok bool) {
	for _, s := range c.scheds {
		if bp, isBP := s.(sched.BoundsPublisher); isBP {
			if sb, mb, valid := bp.Bounds(); valid {
				return sb, mb, true
			}
		}
	}
	return 0, 0, false
}

// Round runs one optimistic placement round: partition pending jobs over
// nShards shards, schedule each partition against the snapshot in shard
// order, then commit in that order detecting machine-claim and budget
// collisions. With detect false (the serial fallback, nShards == 1) every
// decision wins, so the round always terminates the batch.
//
// Every shard mints its chunk IDs from alloc as it schedules. Shards run in
// merge order, so chunks are numbered in the order of the returned
// outcomes.
func (c *Coordinator) Round(pending []*job.Job, snap *Snapshot, nShards int, detect bool, alloc job.IDAllocator) []Outcome {
	if nShards < 1 {
		nShards = 1
	}
	if nShards > c.cfg.Count {
		nShards = c.cfg.Count
	}

	// Partition the pending stream. With one shard everything goes to
	// shard 0 (the serial fallback keeps using shard 0's instance so its
	// learned state stays on one deterministic trajectory).
	parts := make([][]*job.Job, nShards)
	for _, j := range pending {
		s := 0
		if nShards > 1 {
			s = c.parts.Shard(j.ID) % nShards
		}
		parts[s] = append(parts[s], j)
	}

	// Schedule the shards one after another. None reads what another
	// decided: each sees only the snapshot and its own partition.
	for s := 0; s < nShards; s++ {
		c.outs[s] = nil
		if len(parts[s]) > 0 {
			c.outs[s] = c.scheds[s].Schedule(parts[s], snap.State, alloc)
		}
	}

	// Deterministic commit: walk shards in index order, their decisions in
	// scheduler order, claiming idle machine slots and budget headroom.
	total := 0
	for s := 0; s < nShards; s++ {
		total += len(c.outs[s])
	}
	outcomes := make([]Outcome, 0, total)
	for k := range c.claims {
		delete(c.claims, k)
	}
	free := snap.FreeEC
	spent := 0.0
	for s := 0; s < nShards; s++ {
		// Shards start claiming at staggered offsets so uncontended rounds
		// commit conflict-free; collisions appear exactly when the shards'
		// aggregate demand overlaps. Disjoint mode instead hands each shard
		// a private contiguous slot range — structurally conflict-free.
		offset := 0
		limit := len(free)
		if nShards > 1 && len(free) > 0 {
			offset = s * len(free) / nShards
			if c.cfg.Disjoint {
				limit = (s+1)*len(free)/nShards - offset
			}
		}
		claimed := 0
		for _, d := range c.outs[s] {
			o := Outcome{D: d, Shard: s, Won: true, Machine: -1}
			if detect && d.Place == sched.PlaceEC {
				if snap.BudgetArmed {
					ch := snap.Charge(d.EstProcStd)
					if spent+ch > snap.Remaining+1e-9 {
						o.Won, o.Budget = false, true
						outcomes = append(outcomes, o)
						continue
					}
					spent += ch
				}
				if d.Site == 0 && claimed < limit && len(free) > 0 {
					slot := (offset + claimed) % len(free)
					claimed++
					if c.claims[slot] {
						o.Won, o.Machine = false, free[slot]
						outcomes = append(outcomes, o)
						continue
					}
					c.claims[slot] = true
					o.Machine = free[slot]
				}
			}
			outcomes = append(outcomes, o)
		}
	}
	return outcomes
}
