package netsim

import (
	"math"
	"testing"

	"cloudburst/internal/sim"
	"cloudburst/internal/stats"
)

func TestQueueFIFOOneAtATime(t *testing.T) {
	eng := sim.NewEngine()
	l := testLink(eng, 1000)
	q := NewQueue(eng, "up", l, nil, 8)
	var order []string
	var times []float64
	var moved int64
	enq := func(name string, bytes int64) {
		q.Enqueue(&QueueItem{Bytes: bytes, Meta: name, OnDone: func(at float64, it *QueueItem, bw float64) {
			order = append(order, it.Meta.(string))
			times = append(times, at)
			moved += it.Bytes
		}})
	}
	enq("a", 1000)
	enq("b", 2000)
	enq("c", 1000)
	if !q.Busy() || q.QueuedItems() != 2 {
		t.Fatalf("busy=%v queued=%d", q.Busy(), q.QueuedItems())
	}
	eng.Run()
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("order = %v", order)
	}
	// Strictly sequential at 1000 B/s: 1s, 3s, 4s.
	want := []float64{1, 3, 4}
	for i := range want {
		if math.Abs(times[i]-want[i]) > 1e-6 {
			t.Fatalf("times = %v, want %v", times, want)
		}
	}
	if moved != 4000 {
		t.Fatalf("moved %d bytes, want 4000", moved)
	}
}

func TestQueueLargeJobBlocksSmall(t *testing.T) {
	// The pathology motivating SIBS: a large upload delays small ones.
	eng := sim.NewEngine()
	l := testLink(eng, 1000)
	q := NewQueue(eng, "up", l, nil, 8)
	var smallAt float64
	q.Enqueue(&QueueItem{Bytes: 100000, OnDone: func(float64, *QueueItem, float64) {}})
	q.Enqueue(&QueueItem{Bytes: 100, OnDone: func(at float64, it *QueueItem, bw float64) { smallAt = at }})
	eng.Run()
	if smallAt < 100 {
		t.Fatalf("small job finished at %v, should wait behind the large one", smallAt)
	}
}

func TestQueueBacklog(t *testing.T) {
	eng := sim.NewEngine()
	l := testLink(eng, 1000)
	q := NewQueue(eng, "up", l, nil, 8)
	q.Enqueue(&QueueItem{Bytes: 4000})
	q.Enqueue(&QueueItem{Bytes: 1000})
	if math.Abs(q.Backlog()-5000) > 1e-6 {
		t.Fatalf("Backlog = %v, want 5000", q.Backlog())
	}
	eng.RunUntil(2) // 2000 bytes of the in-flight item moved
	if math.Abs(q.Backlog()-3000) > 1e-6 {
		t.Fatalf("Backlog after 2s = %v, want 3000", q.Backlog())
	}
	eng.Run()
	if q.Backlog() != 0 {
		t.Fatalf("Backlog after drain = %v", q.Backlog())
	}
}

func TestQueueOnIdleFires(t *testing.T) {
	eng := sim.NewEngine()
	l := testLink(eng, 1000)
	q := NewQueue(eng, "up", l, nil, 8)
	idleCount := 0
	q.OnIdle = func(*Queue) { idleCount++ }
	q.Enqueue(&QueueItem{Bytes: 100})
	q.Enqueue(&QueueItem{Bytes: 100})
	eng.Run()
	if idleCount != 1 {
		t.Fatalf("OnIdle fired %d times, want 1 (only after full drain)", idleCount)
	}
}

func TestQueueStealHead(t *testing.T) {
	eng := sim.NewEngine()
	l := testLink(eng, 1000)
	q := NewQueue(eng, "up", l, nil, 8)
	if q.StealHead() != nil {
		t.Fatal("steal from empty queue should be nil")
	}
	q.Enqueue(&QueueItem{Bytes: 1000, Meta: "inflight"})
	q.Enqueue(&QueueItem{Bytes: 1000, Meta: "waiting"})
	it := q.StealHead()
	if it == nil || it.Meta.(string) != "waiting" {
		t.Fatalf("StealHead = %v", it)
	}
	if q.StealHead() != nil {
		t.Fatal("in-flight item must not be stealable")
	}
	eng.Run()
}

func TestQueueZeroSizePanics(t *testing.T) {
	eng := sim.NewEngine()
	q := NewQueue(eng, "up", testLink(eng, 1000), nil, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("zero-size item did not panic")
		}
	}()
	q.Enqueue(&QueueItem{Bytes: 0})
}

func TestQueueTunerObservesTransfers(t *testing.T) {
	eng := sim.NewEngine()
	l := testLink(eng, 1000)
	tu := NewTuner(l.ThreadModel(), 2)
	tu.RecordHistory()
	q := NewQueue(eng, "up", l, tu, 0)
	for i := 0; i < 5; i++ {
		q.Enqueue(&QueueItem{Bytes: 1000})
	}
	eng.Run()
	if len(tu.History()) != 5 {
		t.Fatalf("tuner saw %d transfers, want 5", len(tu.History()))
	}
}

// splitQueues returns a split uploader's small, medium and large queues.
func splitQueues(u *Uploader) (small, medium, large *Queue) {
	qs := u.Queues()
	return qs[0], qs[1], qs[2]
}

func TestSplitUploaderRouting(t *testing.T) {
	eng := sim.NewEngine()
	l := testLink(eng, 1000)
	u := NewSplitUploader(eng, l, nil, 1000, 10000)
	small, medium, large := splitQueues(&u)
	completed := 0
	done := func(float64, *QueueItem, float64) { completed++ }
	// Occupy all three queues so nothing rides up, then check routing.
	small.Enqueue(&QueueItem{Bytes: 500, OnDone: done})
	medium.Enqueue(&QueueItem{Bytes: 5000, OnDone: done})
	large.Enqueue(&QueueItem{Bytes: 50000, OnDone: done})
	u.Enqueue(&QueueItem{Bytes: 800, Meta: "s", OnDone: done})
	u.Enqueue(&QueueItem{Bytes: 5000, Meta: "m", OnDone: done})
	u.Enqueue(&QueueItem{Bytes: 20000, Meta: "l", OnDone: done})
	if small.QueuedItems() != 1 || medium.QueuedItems() != 1 || large.QueuedItems() != 1 {
		t.Fatalf("routing wrong: %d/%d/%d queued",
			small.QueuedItems(), medium.QueuedItems(), large.QueuedItems())
	}
	eng.Run()
	if completed != 6 {
		t.Fatalf("completed %d, want 6", completed)
	}
}

func TestSplitUploaderRideUpWhenHigherIdle(t *testing.T) {
	eng := sim.NewEngine()
	l := testLink(eng, 1000)
	u := NewSplitUploader(eng, l, nil, 1000, 10000)
	_, medium, _ := splitQueues(&u)
	// Small queue busy with a long transfer; next small item should ride
	// the idle medium queue rather than wait.
	u.Enqueue(&QueueItem{Bytes: 900, Meta: "first"})
	var secondAt float64
	u.Enqueue(&QueueItem{Bytes: 900, Meta: "second",
		OnDone: func(at float64, it *QueueItem, bw float64) { secondAt = at }})
	if !medium.Busy() {
		t.Fatal("second small item should ride the idle medium queue")
	}
	eng.Run()
	// Both share the link (500 B/s each), finishing at 1.8s — far sooner
	// than the 1.8s serial wait would allow for the second alone.
	if secondAt > 2 {
		t.Fatalf("ride-up item finished at %v, want <2s", secondAt)
	}
}

func TestSplitUploaderNoRideDown(t *testing.T) {
	eng := sim.NewEngine()
	l := testLink(eng, 1000)
	u := NewSplitUploader(eng, l, nil, 1000, 10000)
	small, medium, large := splitQueues(&u)
	// Large job with small/medium idle: must stay in the large queue.
	u.Enqueue(&QueueItem{Bytes: 50000})
	if small.Busy() || medium.Busy() || !large.Busy() {
		t.Fatal("large job must not descend into lower queues")
	}
	eng.Run()
}

func TestSplitUploaderIdleStealFromLower(t *testing.T) {
	eng := sim.NewEngine()
	l := testLink(eng, 1000)
	u := NewSplitUploader(eng, l, nil, 1000, 10000)
	small, mq, lq := splitQueues(&u)
	// Fill the small queue deeply; when medium/large drain they should
	// steal waiting small items. Each queue counts the transfers it
	// completes through its measurement hook.
	completed := 0
	done := func(float64, *QueueItem, float64) { completed++ }
	var medium, large int
	mq.OnMeasure = func(float64, float64) { medium++ }
	lq.OnMeasure = func(float64, float64) { large++ }
	for i := 0; i < 6; i++ {
		small.Enqueue(&QueueItem{Bytes: 500, OnDone: done})
	}
	mq.Enqueue(&QueueItem{Bytes: 500, OnDone: done})
	lq.Enqueue(&QueueItem{Bytes: 500, OnDone: done})
	eng.Run()
	if completed != 8 {
		t.Fatalf("completed %d, want 8", completed)
	}
	// Higher queues must have processed more than their own single item.
	if medium+large <= 2 {
		t.Fatalf("idle steal never happened: medium=%d large=%d", medium, large)
	}
}

func TestSplitUploaderBoundsOrdering(t *testing.T) {
	eng := sim.NewEngine()
	u := NewSplitUploader(eng, testLink(eng, 1000), nil, 5000, 1000) // m < s on purpose
	s, m := u.sBound, u.mBound
	if m < s {
		t.Fatalf("bounds not ordered: s=%d m=%d", s, m)
	}
	u.SetBounds(-10, -20)
	s, m = u.sBound, u.mBound
	if s != 0 || m != 0 {
		t.Fatalf("negative bounds should clamp to 0: s=%d m=%d", s, m)
	}
}

func TestSplitUploaderBacklogs(t *testing.T) {
	eng := sim.NewEngine()
	l := testLink(eng, 1000)
	u := NewSplitUploader(eng, l, nil, 1000, 10000)
	small, medium, large := splitQueues(&u)
	small.Enqueue(&QueueItem{Bytes: 500})
	medium.Enqueue(&QueueItem{Bytes: 5000})
	large.Enqueue(&QueueItem{Bytes: 50000})
	s, m, lg := u.QueueBacklogs()
	if s != 500 || m != 5000 || lg != 50000 {
		t.Fatalf("backlogs = %v/%v/%v", s, m, lg)
	}
	if math.Abs(u.Backlog()-55500) > 1e-6 {
		t.Fatalf("total backlog = %v", u.Backlog())
	}
	if !u.Busy() {
		t.Fatal("uploader should be busy")
	}
	eng.Run()
}

// TestUploaderShapes pins what the engine reads of both uploader shapes:
// the channel count the bounds define, the order in which steal-back takes
// waiting items (the highest queue first, each queue from its head), and
// that a one-queue uploader keeps no bounds and reports its backlog as
// large.
func TestUploaderShapes(t *testing.T) {
	cases := []struct {
		name           string
		split          bool
		sBound, mBound int64
		wantS, wantM   int64 // bounds held after SetBounds
		channels       int
		steals         []string
	}{
		{"collapsed", true, 0, 0, 0, 0, 1, nil},
		{"small equals medium", true, 1000, 1000, 1000, 1000, 2, nil},
		{"no small interval", true, -5, 10000, 0, 10000, 2, nil},
		{"three intervals", true, 1000, 10000, 1000, 10000, 3, []string{
			"upload-large/0", "upload-large/1", "upload-medium/0",
			"upload-medium/1", "upload-small/0", "upload-small/1",
		}},
		{"one queue", false, 1000, 10000, 0, 0, 1, []string{"upload/0", "upload/1"}},
	}
	for _, c := range cases {
		eng := sim.NewEngine()
		l := testLink(eng, 1000)
		var u Uploader
		if c.split {
			u = NewSplitUploader(eng, l, nil, 50, 150)
		} else {
			u = NewUploader(eng, "upload", l, nil)
		}
		u.SetBounds(c.sBound, c.mBound)
		if u.sBound != c.wantS || u.mBound != c.wantM {
			t.Errorf("%s: bounds = %d/%d, want %d/%d", c.name, u.sBound, u.mBound, c.wantS, c.wantM)
		}
		if got := u.Channels(); got != c.channels {
			t.Errorf("%s: %d channels, want %d", c.name, got, c.channels)
		}
		if c.steals == nil {
			continue
		}
		// One transfer in flight and two waiting on every queue.
		for _, q := range u.Queues() {
			q.Enqueue(&QueueItem{Bytes: 500})
			q.Enqueue(&QueueItem{Bytes: 500, Meta: q.Name + "/0"})
			q.Enqueue(&QueueItem{Bytes: 500, Meta: q.Name + "/1"})
		}
		if !c.split {
			if s, m, lg := u.QueueBacklogs(); s != 0 || m != 0 || lg != u.Backlog() || lg != 1500 {
				t.Errorf("%s: backlogs = %v/%v/%v, want 0/0/1500", c.name, s, m, lg)
			}
		}
		for i, want := range c.steals {
			if it := u.StealWaiting(); it == nil || it.Meta != want {
				t.Fatalf("%s: steal %d took %v, want %s", c.name, i, it, want)
			}
		}
		if it := u.StealWaiting(); it != nil {
			t.Errorf("%s: steal past the waiting items took %v", c.name, it.Meta)
		}
		eng.Run()
	}
}

func TestPartitionBySize(t *testing.T) {
	sorted := []int64{1, 2, 3, 4, 5, 6}
	s, m := PartitionBySize(sorted, 1, 1, 1)
	if s != 2 || m != 4 {
		t.Fatalf("equal split = %d/%d, want 2/4", s, m)
	}
	// All capacity in small: everything becomes small.
	s, m = PartitionBySize(sorted, 1, 0, 0)
	if s != 6 || m != 6 {
		t.Fatalf("small-only split = %d/%d, want 6/6", s, m)
	}
	// Zero capacities fall back to equal thirds.
	s, m = PartitionBySize(sorted, 0, 0, 0)
	if s != 2 || m != 4 {
		t.Fatalf("fallback split = %d/%d", s, m)
	}
	// Empty candidate list.
	s, m = PartitionBySize(nil, 1, 1, 1)
	if s != 0 || m != 0 {
		t.Fatalf("empty split = %d/%d", s, m)
	}
	// Bounds must be ordered even with skewed weights.
	s, m = PartitionBySize(sorted, 0.9, 0.05, 0.05)
	if m < s {
		t.Fatalf("bounds unordered: %d/%d", s, m)
	}
}

func TestPredictorFallbackChain(t *testing.T) {
	p := NewPredictor(24, 0.3, 777)
	if p.Predict(0) != 777 {
		t.Fatalf("prior fallback = %v", p.Predict(0))
	}
	p.Observe(3600, 100) // slot 1
	if p.Predict(3600+100) != 100 {
		t.Fatalf("slot estimate = %v", p.Predict(3700))
	}
	// Different slot, no data: global fallback.
	if p.Predict(12*3600) != 100 {
		t.Fatalf("global fallback = %v", p.Predict(12*3600))
	}
	if p.Observations() != 1 {
		t.Fatalf("Observations = %d", p.Observations())
	}
}

func TestPredictorSlotsAreIndependent(t *testing.T) {
	p := NewPredictor(24, 1, 1)
	p.Observe(0, 100)           // slot 0
	p.Observe(13*3600, 900)     // slot 13
	if p.Predict(1800) != 100 { // still slot 0
		t.Fatalf("slot 0 = %v", p.Predict(1800))
	}
	if p.Predict(13*3600+5) != 900 {
		t.Fatalf("slot 13 = %v", p.Predict(13*3600+5))
	}
	est := p.SlotEstimates()
	if est[0] != 100 || est[13] != 900 || est[5] != 0 {
		t.Fatalf("SlotEstimates = %v", est)
	}
}

func TestPredictorWrapsDaily(t *testing.T) {
	p := NewPredictor(24, 1, 1)
	p.Observe(Day+3600, 500) // day 2, slot 1
	if p.Predict(3600) != 500 {
		t.Fatalf("daily wrap failed: %v", p.Predict(3600))
	}
}

func TestPredictorIgnoresBadObservations(t *testing.T) {
	p := NewPredictor(4, 0.5, 10)
	p.Observe(0, 0)
	p.Observe(0, -5)
	if p.Observations() != 0 {
		t.Fatal("non-positive bandwidth should be ignored")
	}
}

func TestPredictorValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewPredictor(0, 0.5, 1) },
		func() { NewPredictor(4, 0.5, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("invalid predictor config did not panic")
				}
			}()
			f()
		}()
	}
}

func TestPredictorLearnsDiurnalShape(t *testing.T) {
	// Feed noisy measurements from a diurnal truth; the learned slot
	// estimates must reproduce the day/night contrast (Fig. 4a).
	truth := DiurnalProfile(250*1024, 0.5)
	p := NewPredictor(24, 0.3, 100*1024)
	g := stats.NewRNG(9)
	for day := 0; day < 3; day++ {
		for h := 0; h < 24; h++ {
			tt := float64(day)*Day + float64(h)*3600 + 600
			p.Observe(tt, truth.MeanAt(tt)*g.LogNormalMeanCV(1, 0.15))
		}
	}
	est := p.SlotEstimates()
	if est[3] < est[15]*1.5 {
		t.Fatalf("learned profile lost the diurnal contrast: night %v day %v", est[3], est[15])
	}
}

func TestProberMeasuresBandwidth(t *testing.T) {
	eng := sim.NewEngine()
	l := testLink(eng, 200*1024)
	p := NewPredictor(24, 0.5, 50*1024)
	pr := NewProber(eng, l, p, nil, ProberConfig{Period: 300})
	eng.RunUntil(3600)
	if pr.Count() < 10 {
		t.Fatalf("probes = %d, want ≥10 in an hour at 300s period", pr.Count())
	}
	got := p.Predict(1800)
	if math.Abs(got-200*1024) > 1024 {
		t.Fatalf("learned bandwidth = %v, want ≈%v", got, 200*1024)
	}
	pr.Stop()
	before := pr.Count()
	eng.RunUntil(7200)
	// An in-flight probe may still land after Stop, but no new ones start.
	if pr.Count() > before+1 {
		t.Fatalf("probes continued after Stop: %d -> %d", before, pr.Count())
	}
}

func TestProberDrivesTuner(t *testing.T) {
	eng := sim.NewEngine()
	l := NewLink(eng, LinkConfig{
		Profile: ConstantProfile(500 * 1024),
		Threads: ThreadModel{PerThread: 40 * 1024, Penalty: 0.02, MaxThread: 24},
	}, stats.NewRNG(1))
	p := NewPredictor(24, 0.5, 50*1024)
	tu := NewTuner(l.ThreadModel(), 1)
	NewProber(eng, l, p, tu, ProberConfig{Period: 120})
	eng.RunUntil(2 * 3600)
	// One thread moves 40 kB/s; the tuner should have climbed well past it.
	if tu.Threads() < 5 {
		t.Fatalf("tuner stuck at %d threads", tu.Threads())
	}
	// The learned estimate should be far above the single-thread rate.
	if p.Predict(3600) < 150*1024 {
		t.Fatalf("predictor learned only %v", p.Predict(3600))
	}
}

func TestProberValidation(t *testing.T) {
	eng := sim.NewEngine()
	l := testLink(eng, 1000)
	p := NewPredictor(4, 0.5, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("zero period did not panic")
		}
	}()
	NewProber(eng, l, p, nil, ProberConfig{Period: 0})
}
