package cloudburst

import (
	"errors"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// shardGoldenConfigs mirrors the golden configurations of the differential
// suites: one per scheduler family, plus a faulted and a priced variant.
func shardGoldenConfigs() map[string]Options {
	faulted := fastOpts(OrderPreserving)
	faulted.Faults = &FaultOptions{ICCrashMTBF: 900, ICCrashMTTR: 120, Seed: 3}
	priced := fastOpts(Greedy)
	priced.Cost = &CostOptions{OnDemandRate: 0.10, Budget: 0.25}
	return map[string]Options{
		"greedy": fastOpts(Greedy),
		"op":     fastOpts(OrderPreserving),
		"sibs":   fastOpts(SIBS),
		"fault":  faulted,
		"cost":   priced,
	}
}

// TestShardsOneBitIdenticalToMonolithic is the first half of the metamorphic
// equivalence suite: Shards=1 must take the monolithic path and reproduce
// its event stream bit for bit on every golden configuration.
func TestShardsOneBitIdenticalToMonolithic(t *testing.T) {
	for name, base := range shardGoldenConfigs() {
		t.Run(name, func(t *testing.T) {
			recM, recS := NewTraceRecorder(), NewTraceRecorder()
			mono := base
			mono.Trace = recM
			sharded := base
			sharded.Trace = recS
			sharded.Shards = &ShardOptions{Count: 1}

			if fp1, fp2 := mono.Fingerprint(), sharded.Fingerprint(); fp1 != fp2 {
				t.Fatalf("Shards=1 fingerprint diverged:\n%s\n%s", fp1, fp2)
			}
			rm, err := Run(mono)
			if err != nil {
				t.Fatal(err)
			}
			rs, err := Run(sharded)
			if err != nil {
				t.Fatal(err)
			}
			if rs.Conflicts != 0 || rs.Replacements != 0 || rs.CommitRetries != 0 {
				t.Fatalf("Shards=1 reported shard metrics: %d/%d/%d",
					rs.Conflicts, rs.Replacements, rs.CommitRetries)
			}
			if rm.Makespan != rs.Makespan || rm.Speedup != rs.Speedup || rm.BurstRatio != rs.BurstRatio {
				t.Fatalf("headline metrics diverged: %v/%v/%v vs %v/%v/%v",
					rm.Makespan, rm.Speedup, rm.BurstRatio, rs.Makespan, rs.Speedup, rs.BurstRatio)
			}
			if !reflect.DeepEqual(recM.Events(), recS.Events()) {
				t.Fatal("Shards=1 event stream is not bit-identical to the monolithic run")
			}
		})
	}
}

// TestShardedDisjointMetricsStable is the second half: Shards=N over a
// disjoint partition is deterministic — re-running the cell reproduces
// every SLA metric to 1e-9 — table-driven across seeds and schedulers.
func TestShardedDisjointMetricsStable(t *testing.T) {
	for _, s := range []SchedulerName{Greedy, OrderPreserving, SIBS} {
		for _, seed := range []int64{1, 2, 3} {
			o := fastOpts(s)
			o.WorkloadSeed = seed
			o.Shards = &ShardOptions{Count: 4, Partition: ShardPartitionDisjoint}
			a, err := Run(o)
			if err != nil {
				t.Fatalf("%s/seed%d: %v", s, seed, err)
			}
			b, err := Run(o)
			if err != nil {
				t.Fatalf("%s/seed%d: %v", s, seed, err)
			}
			for metric, pair := range map[string][2]float64{
				"makespan":    {a.Makespan, b.Makespan},
				"speedup":     {a.Speedup, b.Speedup},
				"burst_ratio": {a.BurstRatio, b.BurstRatio},
				"ic_util":     {a.ICUtil, b.ICUtil},
				"ec_util":     {a.ECUtil, b.ECUtil},
			} {
				if math.Abs(pair[0]-pair[1]) > 1e-9 {
					t.Fatalf("%s/seed%d: %s not reproducible: %v vs %v", s, seed, metric, pair[0], pair[1])
				}
			}
			if a.Conflicts != b.Conflicts || a.Replacements != b.Replacements {
				t.Fatalf("%s/seed%d: conflict history not reproducible", s, seed)
			}
		}
	}
}

// TestShardedWorkerInvariance pins the determinism contract: the merged
// event stream must not depend on how the runtime schedules the shard
// goroutines.
func TestShardedWorkerInvariance(t *testing.T) {
	run := func(procs int) []TraceEvent {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		rec := NewTraceRecorder()
		o := fastOpts(OrderPreserving)
		o.Trace = rec
		o.Shards = &ShardOptions{Count: 4}
		if _, err := Run(o); err != nil {
			t.Fatal(err)
		}
		return rec.Events()
	}
	serial := run(1)
	parallel := run(runtime.NumCPU())
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("sharded event stream depends on GOMAXPROCS")
	}
}

// TestShardedStressTinyCluster runs GOMAXPROCS shards against a tiny
// cluster — maximum contention per free slot — under the invariant checker.
// The race leg (-race -short) exercises the concurrent fan-out for real.
func TestShardedStressTinyCluster(t *testing.T) {
	shards := runtime.GOMAXPROCS(0)
	if shards < 2 {
		shards = 2
	}
	if shards > 16 {
		shards = 16
	}
	o := Options{
		Scheduler:        Greedy,
		Bucket:           Uniform,
		Batches:          4,
		MeanJobsPerBatch: 24,
		ICMachines:       2,
		ECMachines:       2,
		WorkloadSeed:     7,
		NetSeed:          7,
		Verify:           true,
		Audit:            true,
		Shards:           &ShardOptions{Count: shards},
	}
	r, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if r.Conflicts == 0 {
		t.Fatalf("tiny-cluster stress produced no conflicts (shards=%d)", shards)
	}
	a, err := r.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if !a.OK() {
		t.Fatalf("audit issues: %v", a.Issues)
	}
}

// TestShardedScaleAcceptance is the issue's acceptance cell: a 2000-machine
// cluster scheduled by 4 shards, with a nonzero conflict count that the
// independent auditor's replay reproduces exactly and zero invariant
// violations. Greedy compares the EC against the IC backlog as it stood at
// batch arrival, so a starved 4-machine IC and a fat pipe push an entire
// late batch toward the 1996-machine EC — per-shard demand then overlaps
// the staggered claim offsets and the commit phase must arbitrate.
func TestShardedScaleAcceptance(t *testing.T) {
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
		WorkloadSeed:     1,
		NetSeed:          1,
		Verify:           true,
		Audit:            true,
		Shards:           &ShardOptions{Count: 4},
	}
	r, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if r.Conflicts == 0 {
		t.Fatal("acceptance cell produced no conflicts")
	}
	a, err := r.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if !a.OK() {
		t.Fatalf("audit issues: %v", a.Issues[:min(len(a.Issues), 5)])
	}
	if a.Conflicts != r.Conflicts || a.Replacements != r.Replacements {
		t.Fatalf("auditor replay diverged: %d/%d conflicts, %d/%d replacements",
			a.Conflicts, r.Conflicts, a.Replacements, r.Replacements)
	}
	if a.Makespan != r.Makespan {
		t.Fatalf("audit makespan %v != report %v", a.Makespan, r.Makespan)
	}
}

// TestServeShardedVerified serves with sharded placement under the
// invariant checker, then checks the checkpoint/restore guarantee holds for
// it: sharded placement runs entirely inside one batch event, so a cut never
// falls inside a commit and the split run's fingerprint equals the
// unsplit run's.
func TestServeShardedVerified(t *testing.T) {
	const d1, d2 = 1700, 1900
	opts := ServiceOptions{
		Options: Options{
			Scheduler:  Greedy,
			ECMachines: 6,
			Verify:     true,
			Shards:     &ShardOptions{Count: 2},
		},
		WindowSec: 600,
	}
	unsplitOpts := opts
	unsplitOpts.DurationSec = d1 + d2
	unsplit, _, _ := serveAndWait(t, nil, unsplitOpts)
	if unsplit.Fed == 0 || unsplit.Jobs < unsplit.Fed {
		t.Fatalf("sharded serve fed %d, delivered %d", unsplit.Fed, unsplit.Jobs)
	}

	firstOpts := opts
	firstOpts.DurationSec = d1
	firstOpts.CheckpointAtEnd = true
	_, _, svc := serveAndWait(t, nil, firstOpts)
	blob, err := svc.Checkpoint()
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	second, _, _ := serveAndWait(t, nil, ServiceOptions{
		Options:     Options{Verify: true},
		DurationSec: d2,
		Restore:     blob,
	})
	if second.Fingerprint != unsplit.Fingerprint || second.TraceEvents != unsplit.TraceEvents {
		t.Fatalf("sharded split fingerprint %016x/%d, unsplit %016x/%d",
			second.Fingerprint, second.TraceEvents, unsplit.Fingerprint, unsplit.TraceEvents)
	}
	if second.Conflicts != unsplit.Conflicts || second.Makespan != unsplit.Makespan {
		t.Fatalf("sharded split diverged: %d conflicts / makespan %v, unsplit %d / %v",
			second.Conflicts, second.Makespan, unsplit.Conflicts, unsplit.Makespan)
	}
}

func TestParseShardSpec(t *testing.T) {
	cases := []struct {
		spec string
		want ShardOptions
	}{
		{"4", ShardOptions{Count: 4, Partition: ShardPartitionHash, MaxRetries: 2}},
		{"8:disjoint", ShardOptions{Count: 8, Partition: ShardPartitionDisjoint, MaxRetries: 2}},
		{"4:hash:3", ShardOptions{Count: 4, Partition: ShardPartitionHash, MaxRetries: 3}},
		{" 2 : disjoint : 1 ", ShardOptions{Count: 2, Partition: ShardPartitionDisjoint, MaxRetries: 1}},
	}
	for _, c := range cases {
		got, err := ParseShardSpec(c.spec)
		if err != nil {
			t.Fatalf("ParseShardSpec(%q): %v", c.spec, err)
		}
		if *got != c.want {
			t.Fatalf("ParseShardSpec(%q) = %+v, want %+v", c.spec, *got, c.want)
		}
	}
	for _, bad := range []string{"", "x", "0", "65", "4:ring", "4:hash:17", "4:hash:z", "4:hash:2:x", "-1"} {
		_, err := ParseShardSpec(bad)
		var oe *OptionError
		if !errors.As(err, &oe) {
			t.Fatalf("ParseShardSpec(%q) = %v, want *OptionError", bad, err)
		}
		if !strings.HasPrefix(err.Error(), "cloudburst:") {
			t.Fatalf("ParseShardSpec(%q) error lacks package prefix: %v", bad, err)
		}
	}
}

func TestShardOptionsValidate(t *testing.T) {
	for _, c := range []struct {
		name string
		s    ShardOptions
	}{
		{"count-high", ShardOptions{Count: 65}},
		{"count-negative", ShardOptions{Count: -1}},
		{"bad-partition", ShardOptions{Count: 2, Partition: "ring"}},
		{"retries-high", ShardOptions{Count: 2, MaxRetries: 17}},
		{"retries-negative", ShardOptions{Count: 2, MaxRetries: -1}},
	} {
		o := fastOpts(Greedy)
		o.Shards = &c.s
		var oe *OptionError
		if err := o.Validate(); !errors.As(err, &oe) {
			t.Fatalf("%s: Validate = %v, want *OptionError", c.name, err)
		}
	}
	o := fastOpts(Greedy)
	o.Shards = &ShardOptions{} // zero value normalizes to the monolithic path
	if err := o.Validate(); err != nil {
		t.Fatalf("zero ShardOptions rejected: %v", err)
	}
}

func TestShardedSweepCell(t *testing.T) {
	spec := SweepSpec{
		Schedulers: []string{"Greedy"},
		Shards:     []int{1, 2},
		Batches:    2, MeanJobsPerBatch: 6,
	}
	cells := spec.Cells()
	if len(cells) != 2 {
		t.Fatalf("expected 2 cells on the shard axis, got %d", len(cells))
	}
	if cells[0].Shards != 1 || cells[1].Shards != 2 {
		t.Fatalf("shard axis misordered: %+v", cells)
	}
	o1, err := CellOptions(spec, cells[0])
	if err != nil {
		t.Fatal(err)
	}
	if o1.Shards != nil {
		t.Fatalf("Shards=1 cell armed the sharded path: %+v", o1.Shards)
	}
	o2, err := CellOptions(spec, cells[1])
	if err != nil {
		t.Fatal(err)
	}
	if o2.Shards == nil || o2.Shards.Count != 2 {
		t.Fatalf("Shards=2 cell not armed: %+v", o2.Shards)
	}
	if !strings.Contains(o2.Fingerprint(), "|shards=2,") {
		t.Fatalf("sharded fingerprint missing axis: %s", o2.Fingerprint())
	}
	if strings.Contains(o1.Fingerprint(), "|shards=") {
		t.Fatalf("monolithic fingerprint carries shard axis: %s", o1.Fingerprint())
	}
}
