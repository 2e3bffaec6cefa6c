package engine_test

// Sharded golden pins: bit-for-bit fingerprints of sharded runs. The
// monolithic goldens (golden_test.go) have no sharded row, so these pin
// what only the sharded path sets — chunk IDs minted during placement
// rounds, shard and epoch provenance, claimed machines, re-placement
// attempts — on schedulers that chunk (Op, SIBS on the Large bucket) and
// one that does not (Greedy).
//
// Regenerate (only when an intentional semantic change is reviewed and
// accepted) with:
//
//	go test ./internal/engine -run TestShardedGolden -update-golden

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"testing"

	"cloudburst/internal/cost"
	"cloudburst/internal/engine"
	"cloudburst/internal/sched"
	"cloudburst/internal/shard"
	"cloudburst/internal/trace"
	"cloudburst/internal/workload"
)

// shardedRun is the recorded fingerprint of one sharded run. Floats are
// compared bit for bit.
type shardedRun struct {
	Name string `json:"name"`

	Jobs          int `json:"jobs"`
	ChunksCreated int `json:"chunksCreated"`
	Conflicts     int `json:"conflicts"`
	Replacements  int `json:"replacements"`
	CommitRetries int `json:"commitRetries"`

	Makespan      float64 `json:"makespan"`
	CompletionSum float64 `json:"completionSum"`
	QRSMR2        float64 `json:"qrsmR2"`

	// TraceHash fingerprints every event field a sharded run sets, chunk
	// IDs included.
	TraceEvents int    `json:"traceEvents"`
	TraceHash   string `json:"traceHash"`
}

type shardedCase struct {
	name     string
	count    int
	disjoint bool
	budget   float64
	sched    func() sched.Scheduler
}

func shardedCases() []shardedCase {
	op := func() sched.Scheduler { return sched.OrderPreserving{} }
	sibs := func() sched.Scheduler { return &sched.SIBS{} }
	return []shardedCase{
		{name: "op-hash-2", count: 2, sched: op},
		{name: "op-hash-4", count: 4, sched: op},
		{name: "op-disjoint-2", count: 2, disjoint: true, sched: op},
		{name: "op-disjoint-4", count: 4, disjoint: true, sched: op},
		{name: "sibs-hash-2", count: 2, sched: sibs},
		{name: "sibs-hash-4", count: 4, sched: sibs},
		{name: "sibs-disjoint-2", count: 2, disjoint: true, sched: sibs},
		{name: "sibs-disjoint-4", count: 4, disjoint: true, sched: sibs},
		{name: "op-hash-4-budget", count: 4, budget: 2, sched: op},
		{name: "greedy-hash-4", count: 4, sched: func() sched.Scheduler { return sched.Greedy{} }},
	}
}

func runSharded(t *testing.T, sc shardedCase) shardedRun {
	t.Helper()
	rec := trace.NewRecorder()
	cfg := engine.Config{
		NetSeed:      43,
		ECMachines:   6,
		Tracer:       rec,
		Shards:       &shard.Config{Count: sc.count, Disjoint: sc.disjoint, Seed: 5, MaxRetries: 2},
		NewScheduler: sc.sched,
	}
	if sc.budget > 0 {
		cfg.Cost = &cost.Config{OnDemandRate: 0.10, Budget: sc.budget}
	}
	g, err := workload.NewGenerator(workload.Config{
		Bucket: workload.LargeBias, Batches: 5, MeanJobsPerBatch: 25, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Run(cfg, sc.sched(), g.Generate())
	if err != nil {
		t.Fatalf("%s: %v", sc.name, err)
	}

	var compSum float64
	for _, r := range res.Records.Records() {
		compSum += r.CompletedAt
	}
	h := fnv.New64a()
	for _, ev := range rec.Events() {
		fmt.Fprintf(h, "%d|%d|%d|%d|%d|%s|%d|%d|%d|%d|%d|%t|%d\n",
			ev.Type, ev.JobID, ev.Parent, ev.Seq, ev.Batch, ev.Where, ev.Site,
			ev.Shard, ev.Epoch, ev.Machine, ev.Attempt, ev.Gated, ev.Bytes)
	}
	return shardedRun{
		Name:          sc.name,
		Jobs:          res.Jobs,
		ChunksCreated: res.ChunksCreated,
		Conflicts:     res.Conflicts,
		Replacements:  res.Replacements,
		CommitRetries: res.CommitRetries,
		Makespan:      res.Makespan,
		CompletionSum: compSum,
		QRSMR2:        res.QRSMR2,
		TraceEvents:   rec.Len(),
		TraceHash:     fmt.Sprintf("%016x", h.Sum64()),
	}
}

const shardedGoldenPath = "testdata/sharded.json"

func TestShardedGolden(t *testing.T) {
	cases := shardedCases()
	got := make([]shardedRun, len(cases))
	for i, sc := range cases {
		got[i] = runSharded(t, sc)
	}

	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(shardedGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d cases)", shardedGoldenPath, len(got))
		return
	}

	data, err := os.ReadFile(shardedGoldenPath)
	if err != nil {
		t.Fatalf("missing sharded golden file (run with -update-golden to create): %v", err)
	}
	var want []shardedRun
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("sharded golden has %d cases, test produced %d", len(want), len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: sharded run diverged from its pin:\n  got  %+v\n  want %+v",
				want[i].Name, got[i], want[i])
		}
	}
}
