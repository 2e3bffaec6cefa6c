package cloudburst

import (
	"strconv"
	"strings"

	"cloudburst/internal/sched"
	"cloudburst/internal/shard"
	"cloudburst/internal/sweep"
)

// ShardOptions arms shared-state sharded scheduling: Count scheduler
// instances each place a partition of every arrival batch against one
// snapshot of the cluster, none seeing another's decisions, and a
// deterministic commit phase detects the placement collisions this
// speculation causes (two shards claiming the same machine slot, or
// over-committing the EC budget) and re-places the losers against a
// refreshed snapshot. Conflicts, re-placements and commit retries surface
// on the Report and in the trace stream (PlacementConflict,
// PlacementRetried). The shards run one after another, in shard order:
// sharding models speculative placement, not a faster scheduler.
//
// Count=1 (or a nil ShardOptions) keeps the monolithic scheduling path and
// its bit-identical traces. Results for Count>1 are deterministic — shards
// communicate only through the snapshot and the ordered commit — but are
// not event-for-event identical to the monolithic run, because speculative
// placement changes which machine each job lands on.
type ShardOptions struct {
	// Count is the number of scheduler shards, 1–64.
	// 0 normalizes to 1 (monolithic).
	Count int
	// Partition selects how shards claim machine slots: "hash" (default)
	// lets every shard speculate over the full free list from a rotated
	// starting offset, maximizing placement quality at the price of
	// conflicts; "disjoint" confines each shard to a private contiguous
	// slice of the free list, trading placement quality for a near-zero
	// conflict rate.
	Partition string
	// MaxRetries bounds the optimistic re-placement rounds per batch,
	// 1–16; after that many conflicted rounds the batch finishes with one
	// serial round so every job is always placed. 0 normalizes to 2.
	MaxRetries int
	// Seed drives the arrival-stream partitioner. 0 derives a seed from
	// WorkloadSeed (salt "shard-partition"), so sharded runs stay
	// deterministic without configuration.
	Seed int64
}

// The partition vocabulary.
const (
	// ShardPartitionHash rotates every shard over the full free list.
	ShardPartitionHash = "hash"
	// ShardPartitionDisjoint gives each shard a private slot range.
	ShardPartitionDisjoint = "disjoint"
)

func (s ShardOptions) normalize() ShardOptions {
	if s.Count == 0 {
		s.Count = 1
	}
	if s.Partition == "" {
		s.Partition = ShardPartitionHash
	}
	if s.MaxRetries == 0 {
		s.MaxRetries = 2
	}
	return s
}

func (s *ShardOptions) validate() error {
	switch {
	case s.Count < 1 || s.Count > 64:
		return optErr("Shards.Count", s.Count, "out of [1,64]")
	case s.Partition != ShardPartitionHash && s.Partition != ShardPartitionDisjoint:
		return optErr("Shards.Partition", s.Partition, "is not a known partition mode")
	case s.MaxRetries < 1 || s.MaxRetries > 16:
		return optErr("Shards.MaxRetries", s.MaxRetries, "out of [1,16]")
	}
	return nil
}

// ParseShardSpec parses the "N[:partition[:retries]]" shard spec used by the
// command-line tools — e.g. "4", "8:disjoint", "4:hash:3" — and returns the
// normalized options. Failures are typed *OptionError values.
func ParseShardSpec(spec string) (*ShardOptions, error) {
	parts := strings.Split(spec, ":")
	if len(parts) > 3 {
		return nil, optErr("Shards", spec, "wants N[:partition[:retries]]")
	}
	n, err := strconv.Atoi(strings.TrimSpace(parts[0]))
	if err != nil {
		return nil, optErr("Shards.Count", parts[0], "is not an integer")
	}
	// An explicit 0 in a spec is a typo, not a request for the default.
	if n < 1 {
		return nil, optErr("Shards.Count", n, "out of [1,64]")
	}
	s := ShardOptions{Count: n}
	if len(parts) > 1 {
		s.Partition = strings.TrimSpace(parts[1])
	}
	if len(parts) > 2 {
		r, err := strconv.Atoi(strings.TrimSpace(parts[2]))
		if err != nil {
			return nil, optErr("Shards.MaxRetries", parts[2], "is not an integer")
		}
		s.MaxRetries = r
	}
	s = s.normalize()
	if err := s.validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// shardConfig maps the public options onto the engine's shard layer; nil
// when the monolithic path should run.
func (o Options) shardConfig() *shard.Config {
	if o.Shards == nil || o.Shards.Count <= 1 {
		return nil
	}
	seed := o.Shards.Seed
	if seed == 0 {
		seed = sweep.DeriveSeed(o.WorkloadSeed, "shard-partition")
	}
	return &shard.Config{
		Count:      o.Shards.Count,
		Disjoint:   o.Shards.Partition == ShardPartitionDisjoint,
		Seed:       seed,
		MaxRetries: o.Shards.MaxRetries,
	}
}

// schedulerFactory builds a fresh scheduler instance per call, so stateful
// schedulers (SIBS) get a private instance per shard. Options validation
// has already vetted the scheduler name.
func (o Options) schedulerFactory() func() sched.Scheduler {
	return func() sched.Scheduler {
		s, err := o.scheduler()
		if err != nil {
			panic("cloudburst: scheduler factory after validation: " + err.Error())
		}
		return s
	}
}
