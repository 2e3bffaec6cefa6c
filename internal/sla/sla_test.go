package sla

import (
	"errors"
	"math"
	"testing"
)

// rec builds a record quickly: seq, arrival, completed, output bytes, where.
func rec(seq int, arr, done float64, out int64, w Where) Record {
	return Record{Seq: seq, JobID: seq, BatchID: 0, OutputSize: out,
		ArrivalTime: arr, CompletedAt: done, Where: w}
}

func TestMakespan(t *testing.T) {
	s := NewSet()
	if s.Makespan() != 0 {
		t.Fatal("empty set makespan should be 0")
	}
	s.Add(rec(0, 10, 50, 1, IC))
	s.Add(rec(1, 5, 40, 1, IC))
	s.Add(rec(2, 20, 90, 1, EC))
	if s.Makespan() != 85 { // 90 - 5
		t.Fatalf("Makespan = %v, want 85", s.Makespan())
	}
}

func TestSpeedupOrientation(t *testing.T) {
	s := NewSet()
	s.Add(rec(0, 0, 100, 1, IC))
	if got := s.Speedup(600); got != 6 {
		t.Fatalf("Speedup = %v, want 6 (bigger is better)", got)
	}
	empty := NewSet()
	if empty.Speedup(600) != 0 {
		t.Fatal("empty set speedup should be 0")
	}
}

func TestBurstRatio(t *testing.T) {
	s := NewSet()
	if s.BurstRatio() != 0 {
		t.Fatal("empty burst ratio should be 0")
	}
	s.Add(rec(0, 0, 1, 1, IC))
	s.Add(rec(1, 0, 2, 1, EC))
	s.Add(rec(2, 0, 3, 1, IC))
	s.Add(rec(3, 0, 4, 1, EC))
	if s.BurstRatio() != 0.5 {
		t.Fatalf("BurstRatio = %v", s.BurstRatio())
	}
}

func TestBatchBurstRatios(t *testing.T) {
	s := NewSet()
	a := rec(0, 0, 1, 1, EC)
	a.BatchID = 0
	b := rec(1, 0, 2, 1, IC)
	b.BatchID = 0
	c := rec(2, 0, 3, 1, IC)
	c.BatchID = 1
	s.Add(a)
	s.Add(b)
	s.Add(c)
	r := s.BatchBurstRatios()
	if r[0] != 0.5 || r[1] != 0 {
		t.Fatalf("BatchBurstRatios = %v", r)
	}
}

func TestAddValidation(t *testing.T) {
	s := NewSet()
	if err := s.Add(rec(0, 0, 1, 1, IC)); err != nil {
		t.Fatalf("valid record rejected: %v", err)
	}
	cases := []struct {
		r     Record
		field string
	}{
		{rec(0, 0, 2, 1, IC), "Seq"},          // duplicate seq
		{rec(-1, 0, 1, 1, IC), "Seq"},         // negative seq
		{rec(5, 10, 5, 1, IC), "CompletedAt"}, // completes before arrival
	}
	for _, c := range cases {
		err := s.Add(c.r)
		if err == nil {
			t.Fatalf("invalid record %+v accepted", c.r)
		}
		var re *RecordError
		if !errors.As(err, &re) {
			t.Fatalf("error %v is not a *RecordError", err)
		}
		if re.Field != c.field {
			t.Fatalf("RecordError.Field = %q, want %q (%v)", re.Field, c.field, err)
		}
		if re.Error() == "" || re.Error()[:4] != "sla:" {
			t.Fatalf("error message %q lacks sla: prefix", re.Error())
		}
	}
	// Rejected records must leave the set unchanged.
	if s.Len() != 1 {
		t.Fatalf("Len = %d after rejected adds, want 1", s.Len())
	}
}

func TestMustAddPanicsOnInvalid(t *testing.T) {
	s := NewSet()
	s.MustAdd(rec(0, 0, 1, 1, IC))
	defer func() {
		if recover() == nil {
			t.Fatal("MustAdd on a duplicate seq did not panic")
		}
	}()
	s.MustAdd(rec(0, 0, 2, 1, IC))
}

func TestRecordsSortedBySeq(t *testing.T) {
	s := NewSet()
	s.Add(rec(2, 0, 3, 1, IC))
	s.Add(rec(0, 0, 1, 1, IC))
	s.Add(rec(1, 0, 2, 1, IC))
	r := s.Records()
	for i := range r {
		if r[i].Seq != i {
			t.Fatalf("Records not sorted: %v", r)
		}
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestMeanFlowTime(t *testing.T) {
	s := NewSet()
	s.Add(rec(0, 0, 10, 1, IC))
	s.Add(rec(1, 5, 25, 1, IC))
	if got := s.MeanFlowTime(); got != 15 {
		t.Fatalf("MeanFlowTime = %v", got)
	}
	if NewSet().MeanFlowTime() != 0 {
		t.Fatal("empty flow time should be 0")
	}
}

func TestWhereString(t *testing.T) {
	if IC.String() != "IC" || EC.String() != "EC" {
		t.Fatal("Where names wrong")
	}
}

// --- OO metric ---

func TestOOAtStrictOrder(t *testing.T) {
	s := NewSet()
	// Completions: seq0@10, seq1@30, seq2@20 (out of order), sizes 100 each.
	s.Add(rec(0, 0, 10, 100, IC))
	s.Add(rec(1, 0, 30, 100, IC))
	s.Add(rec(2, 0, 20, 100, EC))
	// t=15: only seq0 done -> m=0, o=100.
	if m, o := s.OOAt(15, 0); m != 0 || o != 100 {
		t.Fatalf("OOAt(15) = %d,%d want 0,100", m, o)
	}
	// t=25: seq0 and seq2 done but seq1 missing -> strict order stops at 0.
	if m, o := s.OOAt(25, 0); m != 0 || o != 100 {
		t.Fatalf("OOAt(25) = %d,%d want 0,100", m, o)
	}
	// t=35: all done -> m=2, o=300.
	if m, o := s.OOAt(35, 0); m != 2 || o != 300 {
		t.Fatalf("OOAt(35) = %d,%d want 2,300", m, o)
	}
	// t=5: nothing done.
	if m, o := s.OOAt(5, 0); m != -1 || o != 0 {
		t.Fatalf("OOAt(5) = %d,%d want -1,0", m, o)
	}
}

func TestOOAtWithTolerance(t *testing.T) {
	s := NewSet()
	// seq1 and seq2 done, seq0 missing.
	s.Add(rec(0, 0, 100, 10, IC))
	s.Add(rec(1, 0, 5, 10, IC))
	s.Add(rec(2, 0, 6, 10, IC))
	// Strict: nothing consumable at t=10.
	if m, _ := s.OOAt(10, 0); m != -1 {
		t.Fatalf("strict m = %d, want -1", m)
	}
	// tol=1: one missing job allowed. seq1: (2)-1=1 ≤ 1 completed ✓;
	// seq2: (3)-1=2 ≤ 2 completed ✓ -> m=2, o=20 (seq0 not counted: not done).
	if m, o := s.OOAt(10, 1); m != 2 || o != 20 {
		t.Fatalf("tol=1: m,o = %d,%d want 2,20", m, o)
	}
}

func TestOOAtToleranceMonotone(t *testing.T) {
	s := NewSet()
	// Alternating completion pattern.
	times := []float64{50, 10, 60, 20, 70, 30}
	for i, at := range times {
		s.Add(rec(i, 0, at, 10, IC))
	}
	for _, at := range []float64{15, 25, 35, 55, 65, 75} {
		prev := int64(-1)
		for tol := 0; tol <= 4; tol++ {
			_, o := s.OOAt(at, tol)
			if o < prev {
				t.Fatalf("o_t not monotone in tolerance at t=%v tol=%d: %d < %d", at, tol, o, prev)
			}
			prev = o
		}
	}
}

func TestOOAtNegativeTolerancePanics(t *testing.T) {
	s := NewSet()
	defer func() {
		if recover() == nil {
			t.Fatal("negative tolerance did not panic")
		}
	}()
	s.OOAt(0, -1)
}

func TestOOSeries(t *testing.T) {
	s := NewSet()
	s.Add(rec(0, 0, 100, 10, IC))
	s.Add(rec(1, 0, 250, 20, IC))
	ts := s.OOSeries(120, 0, "oo")
	if ts.Len() < 3 {
		t.Fatalf("series too short: %d", ts.Len())
	}
	// Must be non-decreasing over time.
	prev := -1.0
	for _, p := range ts.Points {
		if p.V < prev {
			t.Fatalf("OO series decreased: %v", ts.Points)
		}
		prev = p.V
	}
	if ts.Last().V != 30 {
		t.Fatalf("final OO = %v, want 30 (all output)", ts.Last().V)
	}
	if NewSet().OOSeries(60, 0, "x").Len() != 0 {
		t.Fatal("empty set OO series should be empty")
	}
}

func TestOOSeriesBadIntervalPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad interval did not panic")
		}
	}()
	NewSet().OOSeries(0, 0, "x")
}

func TestInOrderWaitSeries(t *testing.T) {
	s := NewSet()
	// seq completions: 10, 40, 20, 50.
	s.Add(rec(0, 0, 10, 1, IC))
	s.Add(rec(1, 0, 40, 1, IC))
	s.Add(rec(2, 0, 20, 1, IC))
	s.Add(rec(3, 0, 50, 1, IC))
	ts := s.InOrderWaitSeries("w")
	// wait_1 = 40-10 = 30 (peak); wait_2 = 20-40 = -20 (valley);
	// wait_3 = 50-40 = 10 (peak).
	want := []float64{30, -20, 10}
	if ts.Len() != 3 {
		t.Fatalf("series = %v", ts.Points)
	}
	for i, w := range want {
		if math.Abs(ts.Points[i].V-w) > 1e-9 {
			t.Fatalf("wait[%d] = %v, want %v", i, ts.Points[i].V, w)
		}
	}
}

func TestPeakStatsAndValleys(t *testing.T) {
	s := NewSet()
	s.Add(rec(0, 0, 10, 1, IC))
	s.Add(rec(1, 0, 40, 1, IC)) // +30
	s.Add(rec(2, 0, 20, 1, IC)) // -20
	s.Add(rec(3, 0, 50, 1, IC)) // +10
	count, total, maxPeak, valleys := s.InOrderStats()
	if count != 2 || total != 40 || maxPeak != 30 {
		t.Fatalf("InOrderStats peaks = %d,%v,%v", count, total, maxPeak)
	}
	if valleys != 1 {
		t.Fatalf("InOrderStats valleys = %d", valleys)
	}
}

func TestCompletionSeries(t *testing.T) {
	s := NewSet()
	s.Add(rec(1, 0, 20, 1, IC))
	s.Add(rec(0, 0, 10, 1, IC))
	ts := s.CompletionSeries("c")
	if ts.Points[0].T != 0 || ts.Points[0].V != 10 || ts.Points[1].V != 20 {
		t.Fatalf("CompletionSeries = %v", ts.Points)
	}
}

func TestOrderedFraction(t *testing.T) {
	s := NewSet()
	s.Add(rec(0, 0, 10, 30, IC))
	s.Add(rec(1, 0, 100, 70, IC))
	if f := s.OrderedFractionAt(50, 0); math.Abs(f-0.3) > 1e-9 {
		t.Fatalf("OrderedFractionAt = %v, want 0.3", f)
	}
	if f := s.OrderedFractionAt(200, 0); f != 1 {
		t.Fatalf("final fraction = %v", f)
	}
	if NewSet().OrderedFractionAt(10, 0) != 0 {
		t.Fatal("empty fraction should be 0")
	}
}

func TestEmptySetEdge(t *testing.T) {
	s := NewSet()
	if m, o := s.OOAt(100, 0); m != -1 || o != 0 {
		t.Fatal("empty OOAt wrong")
	}
	if s.InOrderWaitSeries("w").Len() != 0 {
		t.Fatal("empty wait series should be empty")
	}
	c, tw, mp, v := s.InOrderStats()
	if c != 0 || tw != 0 || mp != 0 || v != 0 {
		t.Fatal("empty InOrderStats wrong")
	}
}

func TestSingleRecordSeries(t *testing.T) {
	s := NewSet()
	s.Add(rec(0, 0, 10, 1, IC))
	if s.InOrderWaitSeries("w").Len() != 0 {
		t.Fatal("single record has no waits")
	}
	if _, _, _, v := s.InOrderStats(); v != 0 {
		t.Fatal("single record has no valleys")
	}
}

func TestSpeedupNonPositiveTSeq(t *testing.T) {
	s := NewSet()
	s.Add(rec(0, 0, 100, 1, IC))
	if got := s.Speedup(0); got != 0 {
		t.Fatalf("Speedup(0) = %v, want 0", got)
	}
	if got := s.Speedup(-50); got != 0 {
		t.Fatalf("Speedup(-50) = %v, want 0", got)
	}
}

func TestOOAtExactToleranceBoundary(t *testing.T) {
	// With tol=1 and seq0 still missing, seq1 sits exactly on the boundary
	// (seq+1)−tol == completedUpTo: (1+1)−1 = 1 == 1 completed. The ≤
	// constraint must admit it.
	s := NewSet()
	s.Add(rec(0, 0, 100, 10, IC)) // completes late
	s.Add(rec(1, 0, 5, 10, IC))
	if m, o := s.OOAt(10, 1); m != 1 || o != 10 {
		t.Fatalf("boundary OOAt = %d,%d want 1,10", m, o)
	}
	// One notch past the boundary must not be consumable: seq1 with tol=0
	// gives (1+1)−0 = 2 > 1 completed.
	if m, _ := s.OOAt(10, 0); m != -1 {
		t.Fatalf("past-boundary m = %d, want -1", m)
	}
}

func TestBatchBurstRatiosNeverBursting(t *testing.T) {
	s := NewSet()
	a := rec(0, 0, 1, 1, IC)
	b := rec(1, 0, 2, 1, IC)
	b.BatchID = 0
	c := rec(2, 0, 3, 1, EC)
	c.BatchID = 1
	s.Add(a)
	s.Add(b)
	s.Add(c)
	r := s.BatchBurstRatios()
	if got, ok := r[0]; !ok || got != 0 {
		t.Fatalf("never-bursting batch ratio = %v (present=%v), want exactly 0", got, ok)
	}
	if r[1] != 1 {
		t.Fatalf("batch 1 ratio = %v, want 1", r[1])
	}
}

// TestOOAtAllocFree pins the readers that run per evaluation: OOAt walks
// the pages in place (OOSeries calls it once per grid point, so any
// per-call allocation regresses the whole series), and InOrderStats and
// End summarize without building a series or a copy.
func TestOOAtAllocFree(t *testing.T) {
	s := NewSet()
	for i := 0; i < 256; i++ {
		s.Add(rec(i, 0, float64(100+((i*37)%256)), 10, IC))
	}
	for name, read := range map[string]func(){
		"OOAt":         func() { s.OOAt(200, 2) },
		"InOrderStats": func() { s.InOrderStats() },
		"End":          func() { s.End() },
	} {
		if allocs := testing.AllocsPerRun(50, read); allocs != 0 {
			t.Errorf("%s allocates %v objects per call, want 0", name, allocs)
		}
	}
}
