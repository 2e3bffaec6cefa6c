package invariant_test

import (
	"testing"

	"cloudburst/internal/invariant"
	"cloudburst/internal/trace"
)

// feed pushes events through a fresh checker and returns the violations.
func feed(evs ...trace.Event) []invariant.Violation {
	c := invariant.New()
	for _, ev := range evs {
		c.Emit(ev)
	}
	return c.Finish()
}

// one asserts exactly one violation of the given invariant was detected.
func one(t *testing.T, vs []invariant.Violation, inv string) invariant.Violation {
	t.Helper()
	if len(vs) != 1 {
		t.Fatalf("want exactly one violation, got %d: %v", len(vs), vs)
	}
	if vs[0].Invariant != inv {
		t.Fatalf("violation = %q, want %q: %v", vs[0].Invariant, inv, vs[0])
	}
	return vs[0]
}

// arrivedPlacedDelivered is a minimal clean single-job stream.
func cleanJob() []trace.Event {
	return []trace.Event{
		{Type: trace.RunConfigured, T: 0, LinkBWCeiling: 1000},
		{Type: trace.JobArrived, T: 0, JobID: 1, Seq: -1, Arrival: 0, Bytes: 500, OutputBytes: 200},
		{Type: trace.PlacementDecided, T: 1, JobID: 1, Seq: 0, Where: "EC",
			Gated: true, EstEC: 5, Threshold: 10, Bytes: 500, OutputBytes: 200},
		{Type: trace.UploadStart, T: 1, JobID: 1, Link: "upload"},
		{Type: trace.UploadEnd, T: 2, JobID: 1, Link: "upload", Bytes: 500, BW: 500},
		{Type: trace.ComputeStart, T: 2, JobID: 1, Cluster: "ec", Machine: 0},
		{Type: trace.ComputeEnd, T: 5, JobID: 1, Cluster: "ec", Machine: 0},
		{Type: trace.DownloadStart, T: 5, JobID: 1, Link: "download"},
		{Type: trace.DownloadEnd, T: 6, JobID: 1, Link: "download", Bytes: 200, BW: 200},
		{Type: trace.JobDelivered, T: 6, JobID: 1, Seq: 0, Where: "EC", OutputBytes: 200},
	}
}

func TestCleanStreamPasses(t *testing.T) {
	if vs := feed(cleanJob()...); len(vs) != 0 {
		t.Fatalf("clean stream reported violations: %v", vs)
	}
}

func TestCatchesClockGoingBackwards(t *testing.T) {
	evs := cleanJob()
	evs[4].T = 0.5 // UploadEnd before the placement that preceded it
	vs := feed(evs...)
	if len(vs) == 0 || vs[0].Invariant != "monotonic-clock" {
		t.Fatalf("backwards clock not caught: %v", vs)
	}
}

func TestOutageEventsExemptFromClock(t *testing.T) {
	evs := append(cleanJob(),
		trace.Event{Type: trace.OutageStart, T: 3, Link: "uplink"}, // late detection
		trace.Event{Type: trace.OutageEnd, T: 4, Link: "uplink"},
	)
	if vs := feed(evs...); len(vs) != 0 {
		t.Fatalf("lazy outage detection flagged: %v", vs)
	}
}

func TestCatchesDoubleDelivery(t *testing.T) {
	evs := append(cleanJob(),
		trace.Event{Type: trace.JobDelivered, T: 7, JobID: 1, Seq: 0, OutputBytes: 200})
	one(t, feed(evs...), "job-lifecycle")
}

func TestCatchesLostJob(t *testing.T) {
	evs := cleanJob()[:len(cleanJob())-1] // drop the delivery
	v := one(t, feed(evs...), "job-lifecycle")
	if v.JobID != 1 {
		t.Fatalf("wrong job flagged: %v", v)
	}
}

func TestCatchesDeliveryWithoutPlacement(t *testing.T) {
	vs := feed(
		trace.Event{Type: trace.JobArrived, T: 0, JobID: 1, Bytes: 10, OutputBytes: 5},
		trace.Event{Type: trace.JobDelivered, T: 1, JobID: 1, Seq: 0, OutputBytes: 5},
	)
	one(t, vs, "job-lifecycle")
}

func TestCatchesUploadByteLoss(t *testing.T) {
	evs := cleanJob()
	evs[4].Bytes = 499 // one byte short
	one(t, feed(evs...), "bytes-conserved")
}

func TestCatchesDeliveredOutputMismatch(t *testing.T) {
	evs := cleanJob()
	evs[9].OutputBytes = 100
	one(t, feed(evs...), "bytes-conserved")
}

// stolenBack is a job placed on the EC whose upload a steal-back withdrew
// before any byte moved; it then runs and is delivered on the IC.
func stolenBack() []trace.Event {
	evs := cleanJob()[:4] // configured, arrived, placed EC, UploadStart
	return append(evs,
		trace.Event{Type: trace.Rescheduled, T: 30, JobID: 1, Seq: 0, From: "EC", To: "IC"},
		trace.Event{Type: trace.ComputeStart, T: 30, JobID: 1, Cluster: "ic", Machine: 0},
		trace.Event{Type: trace.ComputeEnd, T: 40, JobID: 1, Cluster: "ic", Machine: 0},
		trace.Event{Type: trace.JobDelivered, T: 40, JobID: 1, Seq: 0, Where: "IC", OutputBytes: 200},
	)
}

func TestStealBackClosesUpload(t *testing.T) {
	if vs := feed(stolenBack()...); len(vs) != 0 {
		t.Fatalf("steal-back stream reported violations: %v", vs)
	}
}

func TestCatchesStealBackWithoutUpload(t *testing.T) {
	evs := stolenBack()
	evs = append(evs[:3], evs[4:]...) // drop the UploadStart
	one(t, feed(evs...), "transfer-pairing")
}

func TestCatchesUnclosedUpload(t *testing.T) {
	evs := stolenBack()
	evs[4].From, evs[4].To = "IC", "EC" // an idle pull closes no upload
	v := one(t, feed(evs...), "transfer-pairing")
	if v.Detail != "1 uploads never finished" {
		t.Fatalf("wrong pairing violation: %v", v)
	}
}

func TestCatchesBWOverCeiling(t *testing.T) {
	evs := cleanJob()
	evs[4].BW = 1500 // ceiling is 1000
	one(t, feed(evs...), "bw-ceiling")
}

func TestCatchesSlackViolationAtPlacement(t *testing.T) {
	evs := cleanJob()
	evs[2].EstEC = 20 // bursted with estEC 20 > threshold 10
	one(t, feed(evs...), "slack-admission")
}

func TestCatchesSlackViolationOnRetry(t *testing.T) {
	evs := append(cleanJob(),
		trace.Event{Type: trace.JobRetried, T: 6, JobID: 2, From: "EC", To: "EC",
			Gated: true, EstEC: 50, Threshold: 10})
	one(t, feed(evs...), "slack-admission")
}

func TestCatchesMachineDoubleBooking(t *testing.T) {
	evs := cleanJob()
	extra := trace.Event{Type: trace.ComputeStart, T: 3, JobID: 9, Cluster: "ec", Machine: 0}
	evs = append(evs[:6], append([]trace.Event{evs[5], extra}, evs[6:]...)...)
	vs := feed(evs...)
	found := false
	for _, v := range vs {
		if v.Invariant == "machine-exclusive" {
			found = true
		}
	}
	if !found {
		t.Fatalf("double booking not caught: %v", vs)
	}
}

func TestCatchesChunkSumMismatch(t *testing.T) {
	vs := feed(
		trace.Event{Type: trace.JobArrived, T: 0, JobID: 1, Bytes: 1000, OutputBytes: 400},
		trace.Event{Type: trace.Chunked, T: 1, JobID: 2, Parent: 1},
		trace.Event{Type: trace.Chunked, T: 1, JobID: 3, Parent: 1},
		trace.Event{Type: trace.PlacementDecided, T: 1, JobID: 2, Seq: 0, Where: "IC",
			Bytes: 500, OutputBytes: 200, Arrival: 0},
		// Second chunk claims 400 input bytes: 100 bytes vanished.
		trace.Event{Type: trace.PlacementDecided, T: 1, JobID: 3, Seq: 1, Where: "IC",
			Bytes: 400, OutputBytes: 200, Arrival: 0},
		trace.Event{Type: trace.JobDelivered, T: 2, JobID: 2, Seq: 0, OutputBytes: 200},
		trace.Event{Type: trace.JobDelivered, T: 3, JobID: 3, Seq: 1, OutputBytes: 200},
	)
	one(t, vs, "bytes-conserved")
}

func TestTotalCountsPastKeptLimit(t *testing.T) {
	c := invariant.New()
	for i := 0; i < 100; i++ {
		// Every event re-delivers an unplaced job: two violations each
		// after the first.
		c.Emit(trace.Event{Type: trace.JobDelivered, T: float64(i), JobID: 1, Seq: 0})
	}
	c.Finish()
	if c.Total() <= 64 {
		t.Fatalf("Total = %d, want > kept limit", c.Total())
	}
}

// costEvents is a clean priced stream: one rental cycle plus two budget
// accruals under a $1 budget.
func costEvents() []trace.Event {
	return []trace.Event{
		{Type: trace.RunConfigured, T: 0, LinkBWCeiling: 1000, Budget: 1.0, BillingSec: 3600, Rate: 0.10},
		{Type: trace.RentalStarted, T: 0, JobID: -1, Cluster: "ec", Machine: 0, Rate: 0.10},
		{Type: trace.CostAccrued, T: 10, JobID: 1, Amount: 0.10, Total: 0.10, Budget: 1.0},
		{Type: trace.CostAccrued, T: 20, JobID: 2, Amount: 0.20, Total: 0.30, Budget: 1.0},
		{Type: trace.RentalEnded, T: 3600, JobID: -1, Cluster: "ec", Machine: 0, Rate: 0.10, Amount: 0.10, Total: 0.10},
	}
}

func TestCleanCostStreamPasses(t *testing.T) {
	if vs := feed(costEvents()...); len(vs) != 0 {
		t.Fatalf("clean priced stream reported violations: %v", vs)
	}
}

func TestCatchesBudgetExceeded(t *testing.T) {
	evs := costEvents()
	evs[3].Amount, evs[3].Total = 1.50, 1.60 // blows through the $1 budget
	one(t, feed(evs...), "cost-budget")
}

func TestCatchesNonMonotoneAccrual(t *testing.T) {
	evs := costEvents()
	evs[3].Amount, evs[3].Total = 0.20, 0.25 // total != previous + amount
	one(t, feed(evs...), "cost-budget")
}

func TestCatchesNegativeAccrual(t *testing.T) {
	evs := costEvents()
	// A refund: both the negative amount and the shrinking total are wrong.
	evs[3].Amount, evs[3].Total = -0.05, 0.05
	vs := feed(evs...)
	if len(vs) == 0 || vs[0].Invariant != "cost-budget" {
		t.Fatalf("negative accrual not caught: %v", vs)
	}
}

func TestCatchesDoubleRental(t *testing.T) {
	evs := costEvents()
	evs = append(evs, trace.Event{Type: trace.RentalStarted, T: 3700, JobID: -1, Cluster: "ec", Machine: 1, Rate: 0.10},
		trace.Event{Type: trace.RentalStarted, T: 3800, JobID: -1, Cluster: "ec", Machine: 1, Rate: 0.10})
	one(t, feed(evs...), "cost-rental")
}

func TestCatchesRentalEndWithoutStart(t *testing.T) {
	evs := costEvents()
	evs = append(evs, trace.Event{Type: trace.RentalEnded, T: 4000, JobID: -1, Cluster: "ec", Machine: 5, Amount: 0.10, Total: 0.20})
	one(t, feed(evs...), "cost-rental")
}

func TestCatchesRentalTotalFalling(t *testing.T) {
	evs := costEvents()
	evs = append(evs,
		trace.Event{Type: trace.RentalStarted, T: 3700, JobID: -1, Cluster: "ec", Machine: 1, Rate: 0.10},
		trace.Event{Type: trace.RentalEnded, T: 7200, JobID: -1, Cluster: "ec", Machine: 1, Amount: 0.10, Total: 0.05})
	one(t, feed(evs...), "cost-rental")
}

// shardedTwoJobs is a clean two-job sharded stream: both jobs burst in
// epoch 1 from different shards, claiming distinct machines, with
// non-overlapping compute windows.
func shardedTwoJobs() []trace.Event {
	return []trace.Event{
		{Type: trace.RunConfigured, T: 0, LinkBWCeiling: 1000},
		{Type: trace.JobArrived, T: 0, JobID: 1, Seq: -1, Arrival: 0, Bytes: 500, OutputBytes: 200},
		{Type: trace.JobArrived, T: 0, JobID: 2, Seq: -1, Arrival: 0, Bytes: 500, OutputBytes: 200},
		{Type: trace.PlacementDecided, T: 1, JobID: 1, Seq: 0, Where: "EC",
			Gated: true, EstEC: 5, Threshold: 10, Bytes: 500, OutputBytes: 200,
			Shard: 1, Epoch: 1, Machine: 5},
		{Type: trace.PlacementDecided, T: 1, JobID: 2, Seq: 1, Where: "EC",
			Gated: true, EstEC: 5, Threshold: 10, Bytes: 500, OutputBytes: 200,
			Shard: 2, Epoch: 1, Machine: 6},
		{Type: trace.UploadStart, T: 1, JobID: 1, Link: "upload"},
		{Type: trace.UploadEnd, T: 2, JobID: 1, Link: "upload", Bytes: 500, BW: 500},
		{Type: trace.UploadStart, T: 2, JobID: 2, Link: "upload"},
		{Type: trace.UploadEnd, T: 3, JobID: 2, Link: "upload", Bytes: 500, BW: 500},
		{Type: trace.ComputeStart, T: 3, JobID: 1, Cluster: "ec", Machine: 5},
		{Type: trace.ComputeEnd, T: 5, JobID: 1, Cluster: "ec", Machine: 5},
		{Type: trace.ComputeStart, T: 5, JobID: 2, Cluster: "ec", Machine: 6},
		{Type: trace.ComputeEnd, T: 7, JobID: 2, Cluster: "ec", Machine: 6},
		{Type: trace.DownloadStart, T: 7, JobID: 1, Link: "download"},
		{Type: trace.DownloadEnd, T: 8, JobID: 1, Link: "download", Bytes: 200, BW: 200},
		{Type: trace.JobDelivered, T: 8, JobID: 1, Seq: 0, Where: "EC", OutputBytes: 200},
		{Type: trace.DownloadStart, T: 8, JobID: 2, Link: "download"},
		{Type: trace.DownloadEnd, T: 9, JobID: 2, Link: "download", Bytes: 200, BW: 200},
		{Type: trace.JobDelivered, T: 9, JobID: 2, Seq: 1, Where: "EC", OutputBytes: 200},
	}
}

func TestCleanShardedStreamPasses(t *testing.T) {
	if vs := feed(shardedTwoJobs()...); len(vs) != 0 {
		t.Fatalf("clean sharded stream reported violations: %v", vs)
	}
}

func TestCatchesShardDoubleClaim(t *testing.T) {
	evs := shardedTwoJobs()
	// Seed the violation: shard 2's commit claims the machine shard 1
	// already took in the same epoch.
	evs[4].Machine = 5
	evs[11].Machine = 5 // keep compute on the claimed machine
	evs[12].Machine = 5 // (windows stay non-overlapping, so only the
	// commit-protocol rule fires, not machine-exclusive)
	one(t, feed(evs...), "shard-exclusive")
}

func TestCatchesStaleEpochCommit(t *testing.T) {
	evs := shardedTwoJobs()
	// Seed the violation: shard 2 commits against an older snapshot than
	// shard 1 just did. Epochs may repeat within a round but never
	// decrease, so a lower epoch is a stale-snapshot commit.
	evs[3].Epoch = 2
	evs[4].Epoch = 1
	one(t, feed(evs...), "shard-epoch")
}

func TestCatchesLostConflictLoser(t *testing.T) {
	// Seed the violation: a job loses a placement conflict and the stream
	// ends without it ever being re-placed (or re-chunked).
	evs := append(cleanJob(),
		trace.Event{Type: trace.PlacementConflict, T: 6, JobID: 99, Seq: -1,
			Where: "EC", Machine: 3, Shard: 2, Epoch: 1, Attempt: 1})
	v := one(t, feed(evs...), "shard-conflict-resolved")
	if v.JobID != 99 {
		t.Fatalf("wrong job flagged: %v", v)
	}
}

func TestConflictThenReplacementPasses(t *testing.T) {
	evs := cleanJob()
	resolved := append([]trace.Event{}, evs[:2]...)
	resolved = append(resolved,
		trace.Event{Type: trace.PlacementConflict, T: 0.5, JobID: 1, Seq: -1,
			Where: "EC", Machine: 0, Shard: 1, Epoch: 1, Attempt: 1},
		trace.Event{Type: trace.PlacementRetried, T: 0.5, JobID: 1, Seq: -1,
			Shard: 1, Epoch: 2, Attempt: 1})
	resolved = append(resolved, evs[2:]...)
	if vs := feed(resolved...); len(vs) != 0 {
		t.Fatalf("resolved conflict flagged: %v", vs)
	}
}
