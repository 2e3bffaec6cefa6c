package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"cloudburst/internal/engine"
	"cloudburst/internal/invariant"
	"cloudburst/internal/trace"
	"cloudburst/internal/window"
)

// perLayer lists the per-layer metrics every workload reports with
// -trace 1, in BENCHMARK.json order. Times and counts are per workload op.
var perLayer = []metricDef{
	{"engine.setup_ms", "ms"},
	{"engine.state_ms", "ms"},
	{"engine.commit_ms", "ms"},
	{"engine.drive_ms", "ms"},
	{"engine.finish_ms", "ms"},
	{"engine.batches", "count"},
	{"engine.live_heap_mb", "MB"},
	{"sched.schedule_ms", "ms"},
	{"sched.calls", "count"},
	{"sched.decisions", "count"},
	{"sched.chunks", "count"},
	{"qrsm.estimate_ms", "ms"},
	{"qrsm.estimate_calls", "count"},
	{"netsim.predict_ms", "ms"},
	{"netsim.predict_calls", "count"},
	{"workload.generate_ms", "ms"},
	{"api.config_ms", "ms"},
	{"shard.rounds", "count"},
	{"shard.parallel_ms", "ms"},
	{"shard.efficiency", "ratio"},
	{"shard.conflicts", "count"},
	{"shard.win_ratio", "ratio"},
	{"shard.commit_retries", "count"},
	{"exec.busy_ratio", "ratio"},
	{"exec.overhead_ms", "ms"},
	{"trace.events", "count"},
	{"trace.record_ms", "ms"},
	{"trace.audit_ms", "ms"},
	{"invariant.check_ms", "ms"},
	{"window.fold_ms", "ms"},
	{"bench.trace_overhead", "ratio"},
	{"bench.attribution_gap", "ratio"},
}

// layerStats accumulates the traced rounds of one workload. Sweep cells
// finish on two workers, so additions take mu.
type layerStats struct {
	mu sync.Mutex
	outcomes

	// roundPlain and roundTraced digest the current round's plain and
	// traced results, op by op.
	roundPlain, roundTraced *digest

	ops  float64 // workload ops the traced runs covered
	runs int     // engine runs traced

	self                           map[string]time.Duration // span self time by span name
	est, pred                      time.Duration
	estCalls, predCalls            int
	schedCalls, decisions, chunks  int
	rounds, batches                int
	roundWall, roundCap, schedWall time.Duration
	decided, conflicts, retries    int
	// rootWall sums the traced runs' walls. closure sums every span's self
	// time, counting a round whole; it equals rootWall when the spans nest
	// consistently.
	rootWall, closure time.Duration

	// plainWall and tracedWall are op walls without and with
	// instrumentation; heapWall is the heap sampling inside traced ops.
	plainWall, tracedWall, heapWall time.Duration
	// execCap is the worker time the op executor had (workers × its wall);
	// the part of it not inside a traced run (rootWall) is its overhead.
	execCap time.Duration

	// Offline consumers of recorded runs, per recorded run.
	record, audit, check, fold, events []float64

	heapMax uint64

	keepSpans bool
	spans     []span
}

func newLayerStats(keepSpans bool) *layerStats {
	return &layerStats{self: map[string]time.Duration{}, keepSpans: keepSpans}
}

func (ls *layerStats) beginRound() {
	ls.roundPlain, ls.roundTraced = newDigest(), newDigest()
}

// addRun folds one traced engine run, part of workload op op, into the
// totals.
func (ls *layerStats) addRun(tr *opTrace, op int, res *engine.Result) {
	spans := tr.build()
	self := selfTimes(spans)
	ls.mu.Lock()
	defer ls.mu.Unlock()
	ls.runs++
	ls.rootWall += spans[0].End
	shards := make(map[int]int) // round span index → Schedule calls in it
	for i, s := range spans {
		ls.self[s.Name] += self[i]
		switch s.Name {
		case spanSchedule:
			ls.schedWall += s.End - s.Start
			shards[s.Parent]++
		case spanRound:
			// The closure counts a round whole, so shards scheduling side
			// by side count once, as their round's wall.
			ls.closure += s.End - s.Start
		case spanHeap:
			ls.heapWall += s.End - s.Start
			ls.closure += self[i]
		default:
			ls.closure += self[i]
		}
	}
	for i, n := range shards {
		d := spans[i].End - spans[i].Start
		ls.rounds++
		ls.roundWall += d
		ls.roundCap += time.Duration(n) * d
	}
	for _, m := range tr.marks {
		if m.kind == markSched {
			ls.schedCalls++
			ls.est += m.est
			ls.pred += m.pred
			ls.estCalls += m.estCalls
			ls.predCalls += m.predCalls
			ls.decisions += m.decisions
			ls.chunks += m.chunksOut
		}
	}
	ls.batches += len(shards) - res.CommitRetries
	ls.retries += res.CommitRetries
	ls.decided += tr.decided
	ls.conflicts += tr.conflicts
	if ls.keepSpans {
		for i := range spans {
			spans[i].Op, spans[i].Run = op, ls.runs-1
		}
		ls.spans = append(ls.spans, spans...)
	}
}

// sampleHeap records the live heap after a collection; call it outside
// timed spans, or inside a bench.heap span.
func (ls *layerStats) sampleHeap() {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	ls.mu.Lock()
	ls.heapMax = max(ls.heapMax, m.HeapAlloc)
	ls.mu.Unlock()
}

// replay records one engine run's full event stream and times the three
// offline consumers of such a stream: the SLA auditor, the invariant
// checker and the window collector. run executes the recorded twin and
// returns its result digest, which must equal want; plain is the untraced
// wall of the same run.
func (ls *layerStats) replay(plain time.Duration, want uint64, run func(extra trace.Tracer) (uint64, error)) {
	rec := trace.NewRecorder()
	start := time.Now()
	got, err := run(rec)
	wall := time.Since(start)
	ls.attempt()
	if err != nil {
		ls.fail(fmt.Errorf("recorded twin: %w", err))
		return
	}
	if got != want {
		ls.fail(fmt.Errorf("recorded twin digest %#x, plain run %#x", got, want))
		return
	}
	events := rec.Events()
	ls.record = append(ls.record, ms(wall-plain))
	ls.events = append(ls.events, float64(len(events)))

	start = time.Now()
	a, err := trace.AuditEvents(events, trace.AuditOptions{})
	ls.audit = append(ls.audit, ms(time.Since(start)))
	switch {
	case err != nil:
		ls.fail(fmt.Errorf("audit: %w", err))
	case !a.OK():
		ls.fail(fmt.Errorf("audit: %d issue(s), first: %s", len(a.Issues), a.Issues[0]))
	}

	start = time.Now()
	chk := invariant.New()
	for _, ev := range events {
		chk.Emit(ev)
	}
	vs := chk.Finish()
	ls.check = append(ls.check, ms(time.Since(start)))
	if len(vs) > 0 {
		ls.fail(fmt.Errorf("invariant checker: %d violation(s), first: %s", chk.Total(), vs[0]))
	}

	start = time.Now()
	completions := foldWindows(events, 600)
	ls.fold = append(ls.fold, ms(time.Since(start)))
	delivered := 0
	for _, ev := range events {
		if ev.Type == trace.JobDelivered {
			delivered++
		}
	}
	if completions != delivered {
		ls.fail(fmt.Errorf("window fold counted %d completions, stream has %d deliveries", completions, delivered))
	}
}

// foldWindows feeds a recorded stream through a window collector cut every
// width virtual seconds and returns the completions the windows counted.
func foldWindows(events []trace.Event, width float64) int {
	col := window.New(window.Config{Width: width})
	completions, next, last := 0, width, 0.0
	flush := func(at float64) {
		if rep, ok := col.Flush(at); ok {
			completions += rep.Completions
		}
	}
	for _, ev := range events {
		for ev.T >= next {
			flush(next)
			next += width
		}
		col.Emit(ev)
		last = max(last, ev.T)
	}
	flush(last + width)
	return completions
}

// metrics turns the totals into the per-layer metrics, per workload op.
func (ls *layerStats) metrics() map[string]metricValue {
	perOp := func(d time.Duration) float64 { return ms(d) / ls.ops }
	count := func(n int) float64 { return float64(n) / ls.ops }
	// The offline consumers run on single engine runs; scale them to ops.
	perRun := func(xs []float64) float64 { return median(xs) * float64(ls.runs) / ls.ops }
	v := map[string]float64{
		"engine.setup_ms":       perOp(ls.self[spanSetup]),
		"engine.state_ms":       perOp(ls.self[spanState]),
		"engine.commit_ms":      perOp(ls.self[spanCommit]),
		"engine.drive_ms":       perOp(ls.self[spanRun]),
		"engine.finish_ms":      perOp(ls.self[spanFinish]),
		"engine.batches":        count(ls.batches),
		"engine.live_heap_mb":   float64(ls.heapMax) / (1 << 20),
		"sched.schedule_ms":     perOp(ls.self[spanSchedule]),
		"sched.calls":           count(ls.schedCalls),
		"sched.decisions":       count(ls.decisions),
		"sched.chunks":          count(ls.chunks),
		"qrsm.estimate_ms":      perOp(ls.est),
		"qrsm.estimate_calls":   count(ls.estCalls),
		"netsim.predict_ms":     perOp(ls.pred),
		"netsim.predict_calls":  count(ls.predCalls),
		"workload.generate_ms":  perOp(ls.self[spanGenerate]),
		"api.config_ms":         perOp(ls.self[spanConfig]),
		"shard.rounds":          count(ls.rounds),
		"shard.parallel_ms":     perOp(ls.roundWall),
		"shard.efficiency":      float64(ls.schedWall) / float64(ls.roundCap),
		"shard.conflicts":       count(ls.conflicts),
		"shard.win_ratio":       float64(ls.decided) / float64(ls.decided+ls.conflicts),
		"shard.commit_retries":  count(ls.retries),
		"exec.busy_ratio":       float64(ls.rootWall) / float64(ls.execCap),
		"exec.overhead_ms":      perOp(ls.execCap - ls.rootWall),
		"trace.events":          perRun(ls.events),
		"trace.record_ms":       perRun(ls.record),
		"trace.audit_ms":        perRun(ls.audit),
		"invariant.check_ms":    perRun(ls.check),
		"window.fold_ms":        perRun(ls.fold),
		"bench.trace_overhead":  float64(ls.tracedWall-ls.heapWall)/float64(ls.plainWall) - 1,
		"bench.attribution_gap": float64(ls.self[spanOp]) / float64(ls.rootWall),
	}
	out := make(map[string]metricValue, len(perLayer))
	for _, d := range perLayer {
		out[d.name] = metricValue{Value: v[d.name], Unit: d.unit}
	}
	return out
}
