package engine

import (
	"context"
	"errors"
	"testing"

	"cloudburst/internal/cluster"
	"cloudburst/internal/invariant"
	"cloudburst/internal/sched"
	"cloudburst/internal/shard"
	"cloudburst/internal/window"
	"cloudburst/internal/workload"
)

// testStream builds a fresh diurnal arrival process; every call with the
// same seed yields the identical batch sequence, which is what checkpoint
// replay relies on.
func testStream(seed int64) *workload.Stream {
	return workload.MustNewStream(workload.StreamConfig{
		Bucket:           workload.UniformMix,
		BaseJobsPerBatch: 4,
		Seed:             seed,
	})
}

// mustServe serves under OrderPreserving, or under the per-shard
// scheduler when cfg shards placement.
func mustServe(t *testing.T, cfg Config, src workload.Source, sc StreamConfig) *StreamResult {
	t.Helper()
	var s sched.Scheduler = sched.OrderPreserving{}
	if cfg.NewScheduler != nil {
		s = cfg.NewScheduler()
	}
	res, err := Serve(context.Background(), cfg, s, src, sc)
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	return res
}

func TestServeDrainsOnDuration(t *testing.T) {
	var wins []window.Report
	res := mustServe(t, Config{NetSeed: 1}, testStream(1), StreamConfig{
		Window:   600,
		Duration: 3600,
		OnWindow: func(r window.Report) { wins = append(wins, r) },
	})
	if res.StopCause != StopDuration {
		t.Fatalf("stop cause %q, want %q", res.StopCause, StopDuration)
	}
	if res.Fed == 0 || res.FedBatches == 0 {
		t.Fatalf("nothing fed: %d jobs / %d batches", res.Fed, res.FedBatches)
	}
	if res.Jobs != res.Records.Len() {
		t.Fatalf("delivered %d records for %d jobs", res.Records.Len(), res.Jobs)
	}
	if res.Jobs < res.Fed {
		t.Fatalf("drain lost jobs: %d delivered < %d fed", res.Jobs, res.Fed)
	}
	if res.Checkpoint != nil {
		t.Fatalf("drained run produced a checkpoint")
	}
	// Six full windows plus (usually) a partial drain window, delivered in
	// order with contiguous indices.
	if len(wins) < 6 {
		t.Fatalf("got %d windows, want >= 6", len(wins))
	}
	arrivals := 0
	for i, w := range wins {
		if w.Index != i {
			t.Fatalf("window %d has index %d", i, w.Index)
		}
		arrivals += w.Arrivals
	}
	if arrivals != res.Fed {
		t.Fatalf("windows saw %d arrivals, engine fed %d", arrivals, res.Fed)
	}
	if res.Windows != len(wins) {
		t.Fatalf("result reports %d windows, callback saw %d", res.Windows, len(wins))
	}
}

func TestServeDeterministic(t *testing.T) {
	run := func() *StreamResult {
		return mustServe(t, Config{NetSeed: 7}, testStream(7), StreamConfig{
			Window:   600,
			Duration: 3600,
		})
	}
	a, b := run(), run()
	if a.Fingerprint != b.Fingerprint || a.TraceEvents != b.TraceEvents {
		t.Fatalf("fingerprints differ: %016x/%d vs %016x/%d",
			a.Fingerprint, a.TraceEvents, b.Fingerprint, b.TraceEvents)
	}
	if a.Fed != b.Fed || a.Jobs != b.Jobs || a.Makespan != b.Makespan {
		t.Fatalf("results differ: %+v vs %+v", a, b)
	}
}

func TestServeMaxJobsStops(t *testing.T) {
	res := mustServe(t, Config{NetSeed: 2}, testStream(2), StreamConfig{
		Window:  600,
		MaxJobs: 10,
	})
	if res.StopCause != StopMaxJobs {
		t.Fatalf("stop cause %q, want %q", res.StopCause, StopMaxJobs)
	}
	if res.Fed < 10 {
		t.Fatalf("fed %d jobs, budget was 10", res.Fed)
	}
	if res.Jobs < res.Fed {
		t.Fatalf("drain lost jobs: %d delivered < %d fed", res.Jobs, res.Fed)
	}
}

func TestServeSourceExhaustionStops(t *testing.T) {
	g := workload.MustNewGenerator(workload.Config{
		Bucket:           workload.UniformMix,
		Batches:          3,
		MeanJobsPerBatch: 4,
		Seed:             3,
	})
	src := workload.NewSliceSource(g.Generate())
	res := mustServe(t, Config{NetSeed: 3}, src, StreamConfig{Window: 600})
	if res.StopCause != StopSource {
		t.Fatalf("stop cause %q, want %q", res.StopCause, StopSource)
	}
	if res.Jobs < res.Fed || res.Fed == 0 {
		t.Fatalf("fed %d, delivered %d", res.Fed, res.Jobs)
	}
}

// TestServeSliceSourceChunkIDsUnique serves a pre-generated workload whose
// large jobs get chunked. Serve pulls batch k+1 only after batch k's
// scheduling round, so chunks minted in that round must not take the IDs
// batch k+1 already carries — the invariant checker sees any such job
// arriving twice.
func TestServeSliceSourceChunkIDsUnique(t *testing.T) {
	batches := workload.MustNewGenerator(workload.Config{
		Bucket: workload.LargeBias, Batches: 6, Seed: 1,
	}).Generate()
	chk := invariant.New()
	res := mustServe(t, Config{NetSeed: 1}, workload.NewSliceSource(batches), StreamConfig{Observer: chk})
	if res.ChunksCreated == 0 {
		t.Fatal("workload was not chunked; the test needs chunk IDs")
	}
	if vs := chk.Finish(); len(vs) > 0 {
		t.Fatalf("%d invariant violations, first: %v", len(vs), vs[0])
	}
}

// TestServeCancelDrainsCleanly cancels mid-run (from a window callback, so
// transfers are guaranteed in flight) and checks the drain delivers every
// admitted job with the invariant checker's end-of-stream verdict clean —
// no leaked transfers, no machines left mid-task.
func TestServeCancelDrainsCleanly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	chk := invariant.New()
	res, err := Serve(ctx, Config{NetSeed: 4}, sched.OrderPreserving{}, testStream(4), StreamConfig{
		Window:   600,
		Observer: chk,
		OnWindow: func(r window.Report) {
			if r.Index == 1 {
				cancel()
			}
		},
	})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if res.StopCause != StopCancelled {
		t.Fatalf("stop cause %q, want %q", res.StopCause, StopCancelled)
	}
	if res.Jobs < res.Fed || res.Fed == 0 {
		t.Fatalf("cancellation lost jobs: fed %d, delivered %d", res.Fed, res.Jobs)
	}
	if vs := chk.Finish(); len(vs) > 0 {
		t.Fatalf("invariant violations after cancel-drain: %v", vs)
	}
}

// TestServeZeroArrivalWindows runs a silent arrival process: every window
// must still flush, fully zeroed, without dividing by the empty job count.
func TestServeZeroArrivalWindows(t *testing.T) {
	src := workload.MustNewStream(workload.StreamConfig{
		Bucket: workload.UniformMix,
		Rate:   func(float64) float64 { return 0 },
		Seed:   5,
	})
	var wins []window.Report
	res := mustServe(t, Config{NetSeed: 5}, src, StreamConfig{
		Window:   600,
		Duration: 1800,
		OnWindow: func(r window.Report) { wins = append(wins, r) },
	})
	if res.Fed != 0 || res.Jobs != 0 {
		t.Fatalf("silent stream fed %d jobs, delivered %d", res.Fed, res.Jobs)
	}
	if len(wins) < 3 {
		t.Fatalf("got %d windows, want >= 3", len(wins))
	}
	for _, w := range wins {
		if w.Arrivals != 0 || w.Completions != 0 {
			t.Fatalf("silent window has flow: %+v", w)
		}
		for name, v := range map[string]float64{
			"BurstRatio": w.BurstRatio, "Throughput": w.Throughput,
			"ICUtil": w.ICUtil, "ECUtil": w.ECUtil,
			"SojournP50": w.SojournP50, "SojournP95": w.SojournP95,
		} {
			if v != 0 {
				t.Fatalf("silent window %d: %s = %v, want 0", w.Index, name, v)
			}
		}
	}
}

// splitScenario is one checkpoint/restore determinism case.
type splitScenario struct {
	name   string
	cfg    Config
	seed   int64
	bursts bool
}

// TestServeSplitMatchesUnsplit is the core checkpoint/restore guarantee:
// running D1 seconds, suspending, checkpointing, and restoring for D2 more
// is bit-identical — same trace fingerprint, same windows, same SLA
// metrics — to one unsplit run of D1+D2 seconds. Three seeds plus a fault
// and a sharded scenario.
func TestServeSplitMatchesUnsplit(t *testing.T) {
	scenarios := []splitScenario{
		{name: "seed1", cfg: Config{NetSeed: 1}, seed: 1},
		{name: "seed2", cfg: Config{NetSeed: 2}, seed: 2, bursts: true},
		{name: "seed3", cfg: Config{NetSeed: 3}, seed: 3},
		{name: "faults", seed: 4, cfg: Config{
			NetSeed: 4,
			Faults: &FaultConfig{
				ECRevocation: cluster.FaultModel{MTBF: 1200, MTTR: 600},
				ICCrash:      cluster.FaultModel{MTBF: 1800, MTTR: 300},
				Seed:         4,
			},
		}},
		// Sharded placement runs entirely inside one batch event, so a
		// checkpoint cut never sees a commit half-way through.
		{name: "shards", seed: 5, bursts: true, cfg: Config{
			NetSeed:      5,
			ECMachines:   6,
			Shards:       &shard.Config{Count: 2, Seed: 5, MaxRetries: 2},
			NewScheduler: func() sched.Scheduler { return sched.Greedy{} },
		}},
	}
	const d1, d2 = 1700, 1900 // deliberately off the window grid
	for _, tc := range scenarios {
		t.Run(tc.name, func(t *testing.T) {
			stream := func() *workload.Stream {
				cfg := workload.StreamConfig{
					Bucket:           workload.UniformMix,
					BaseJobsPerBatch: 4,
					Seed:             tc.seed,
				}
				if tc.bursts {
					cfg.Burst = &workload.BurstConfig{MeanGap: 1200, MeanDuration: 600}
				}
				return workload.MustNewStream(cfg)
			}

			var unsplitWins []window.Report
			unsplit := mustServe(t, tc.cfg, stream(), StreamConfig{
				Window:   600,
				Duration: d1 + d2,
				OnWindow: func(r window.Report) { unsplitWins = append(unsplitWins, r) },
			})

			var splitWins []window.Report
			first := mustServe(t, tc.cfg, stream(), StreamConfig{
				Window:               600,
				Duration:             d1,
				SuspendForCheckpoint: true,
				OnWindow:             func(r window.Report) { splitWins = append(splitWins, r) },
			})
			if first.StopCause != StopSuspended {
				t.Fatalf("first leg stop cause %q, want %q", first.StopCause, StopSuspended)
			}
			cp := first.Checkpoint
			if cp == nil {
				t.Fatalf("suspended run has no checkpoint")
			}
			if cp.Served != d1 {
				t.Fatalf("checkpoint served %v, want %v", cp.Served, float64(d1))
			}
			second := mustServe(t, tc.cfg, stream(), StreamConfig{
				Window:   600,
				Duration: d2,
				Resume:   cp,
				OnWindow: func(r window.Report) { splitWins = append(splitWins, r) },
			})

			if second.Fingerprint != unsplit.Fingerprint || second.TraceEvents != unsplit.TraceEvents {
				t.Fatalf("split fingerprint %016x/%d events, unsplit %016x/%d",
					second.Fingerprint, second.TraceEvents, unsplit.Fingerprint, unsplit.TraceEvents)
			}
			if second.StopCause != unsplit.StopCause {
				t.Fatalf("split stop cause %q, unsplit %q", second.StopCause, unsplit.StopCause)
			}
			if second.Fed != unsplit.Fed || second.FedBatches != unsplit.FedBatches {
				t.Fatalf("split fed %d/%d, unsplit %d/%d",
					second.Fed, second.FedBatches, unsplit.Fed, unsplit.FedBatches)
			}
			if second.Jobs != unsplit.Jobs || second.Makespan != unsplit.Makespan ||
				second.BurstRatio != unsplit.BurstRatio || second.ICUtil != unsplit.ICUtil {
				t.Fatalf("split result diverged:\nsplit:   jobs=%d makespan=%v burst=%v icutil=%v\nunsplit: jobs=%d makespan=%v burst=%v icutil=%v",
					second.Jobs, second.Makespan, second.BurstRatio, second.ICUtil,
					unsplit.Jobs, unsplit.Makespan, unsplit.BurstRatio, unsplit.ICUtil)
			}
			if tc.cfg.Shards != nil && (unsplit.Conflicts == 0 || second.Conflicts != unsplit.Conflicts) {
				t.Fatalf("sharded split saw %d conflicts, unsplit %d (want equal and non-zero)",
					second.Conflicts, unsplit.Conflicts)
			}
			if second.VirtualTime != unsplit.VirtualTime {
				t.Fatalf("split ends at t=%v, unsplit at t=%v", second.VirtualTime, unsplit.VirtualTime)
			}

			// Windowed metrics line up across the cut: the two legs together
			// produced exactly the unsplit run's windows.
			if len(splitWins) != len(unsplitWins) {
				t.Fatalf("split delivered %d windows, unsplit %d", len(splitWins), len(unsplitWins))
			}
			for i := range splitWins {
				if splitWins[i] != unsplitWins[i] {
					t.Fatalf("window %d diverged:\nsplit:   %+v\nunsplit: %+v",
						i, splitWins[i], unsplitWins[i])
				}
			}
		})
	}
}

// TestServeRestoreMismatch restores a checkpoint against a different
// arrival stream: the replay must detect the drift and fail with a typed
// *RestoreMismatchError instead of silently continuing a corrupt run.
func TestServeRestoreMismatch(t *testing.T) {
	first := mustServe(t, Config{NetSeed: 1}, testStream(1), StreamConfig{
		Window:               600,
		Duration:             1700,
		SuspendForCheckpoint: true,
	})
	if first.Checkpoint == nil {
		t.Fatalf("no checkpoint from suspended run")
	}
	_, err := Serve(context.Background(), Config{NetSeed: 1}, sched.OrderPreserving{},
		testStream(2), StreamConfig{Window: 600, Duration: 1900, Resume: first.Checkpoint})
	var mm *RestoreMismatchError
	if !errors.As(err, &mm) {
		t.Fatalf("got %v, want *RestoreMismatchError", err)
	}
}

func TestServeConfigValidation(t *testing.T) {
	cases := []StreamConfig{
		{Window: -1},
		{Window: 600, Duration: -5},
		{Window: 600, MaxJobs: -1},
		{Window: 600, SuspendForCheckpoint: true}, // no duration
		{Window: 600, Duration: 100, MaxJobs: 5, SuspendForCheckpoint: true}, // job budget
		{Window: 600, Duration: 100, Resume: &Checkpoint{}},                  // empty cursor
	}
	for i, sc := range cases {
		if _, err := Serve(context.Background(), Config{}, sched.OrderPreserving{}, testStream(1), sc); err == nil {
			t.Fatalf("case %d: invalid StreamConfig accepted: %+v", i, sc)
		}
	}
}
