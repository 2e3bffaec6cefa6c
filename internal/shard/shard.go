// Package shard implements shared-state optimistic concurrent scheduling
// in the style of arktos' global scheduler: N scheduler instances place
// jobs against one immutable snapshot of cluster state, each consuming a
// hash partition of the arrival stream, and a deterministic commit phase
// detects placement collisions — two shards claiming the same idle
// machine slot, or the fleet's EC budget over-committed by the sum of
// individually-admitted bursts. Losers re-enter the next round against a
// refreshed snapshot; conflicts, re-placements and commit retries are
// first-class metrics.
//
// Determinism contract: shards run on real goroutines (so the race
// detector exercises the concurrent path), but every input they read is
// immutable for the duration of the round and their outputs are merged in
// shard order. A sharded run is therefore bit-reproducible regardless of
// GOMAXPROCS or goroutine interleaving.
package shard

import (
	"fmt"
	"sync"

	"cloudburst/internal/job"
	"cloudburst/internal/sched"
)

// TempIDBase is the floor of the per-shard temporary chunk-ID space.
// Shard-local allocators hand out IDs >= TempIDBase during a round; the
// engine renumbers them from its real allocator at merge time, in
// deterministic merge order, so chunk IDs are identical no matter how the
// goroutines interleaved.
const TempIDBase = 1 << 28

// tempIDSpan is the per-shard width of the temporary ID space.
const tempIDSpan = 1 << 20

// Config parameterizes the sharded placement path.
type Config struct {
	// Count is the number of concurrent scheduler shards; <= 1 disables
	// sharding entirely (the engine keeps its monolithic path).
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

// Count returns the shard count.
func (p Partitioner) Count() int { return p.count }

// Snapshot is the immutable system view one placement round runs against.
// Everything reachable from it must be safe for concurrent reads: the
// engine materializes the estimator and strips the mutating EstimateJob
// memo before fanning out.
type Snapshot struct {
	// State is the scheduler-observable state, shared read-only by every
	// shard. State.EstimateJob must be nil.
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
// placement rounds: fan out, speculative schedule, deterministic commit.
type Coordinator struct {
	cfg    Config
	parts  Partitioner
	scheds []sched.Scheduler
	allocs []*job.Counter

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
		allocs: make([]*job.Counter, cfg.Count),
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
// nShards shards, schedule concurrently against the snapshot, then commit
// in shard order detecting machine-claim and budget collisions. With
// detect false (the serial fallback, nShards == 1) every decision wins, so
// the round always terminates the batch.
//
// Chunk IDs allocated during the round are temporary (>= TempIDBase); the
// caller renumbers them in merge order before emitting any event.
func (c *Coordinator) Round(pending []*job.Job, snap *Snapshot, nShards int, detect bool) []Outcome {
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

	// Fan out on real goroutines. Every shard reads only the immutable
	// snapshot and writes only its own slot of outs.
	var wg sync.WaitGroup
	for s := 0; s < nShards; s++ {
		c.outs[s] = nil
		if len(parts[s]) == 0 {
			continue
		}
		base := TempIDBase + s*tempIDSpan
		c.allocs[s] = job.NewCounter(base)
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			c.outs[s] = c.scheds[s].Schedule(parts[s], snap.State, c.allocs[s])
		}(s)
	}
	wg.Wait()

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

// CheckTempIDs panics when the real allocator has grown into the
// temporary chunk-ID space — the renumbering scheme would stop being
// collision-free. Practically unreachable (2^28 jobs), but cheap to keep
// machine-checked.
func CheckTempIDs(nextReal int) {
	if nextReal >= TempIDBase {
		panic(fmt.Sprintf("shard: job ID space exhausted (next real ID %d >= temp base %d)", nextReal, TempIDBase))
	}
}
