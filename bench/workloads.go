package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"cloudburst"
	"cloudburst/internal/engine"
	"cloudburst/internal/sweep"
	"cloudburst/internal/trace"
	"cloudburst/internal/window"
)

// A workload is one set of inputs the benchmark runs, rebuilt from the
// seed. Every workload is a closed loop: the next op starts when the
// previous one returns.
type benchWorkload struct {
	name string
	// item is what the throughput metric counts.
	item string
	// inputs is how many input sets the rounds cycle through.
	inputs int
	new    func(seed int64) instance
}

// An instance is a workload's inputs for one seed.
type instance interface {
	// warmUp runs one untimed op so the bootstrap cache and the arena pool
	// are filled before timing; set-up time includes it.
	warmUp() error
	// round runs every op of round r once through the public API,
	// untraced. Rounds repeat the same inputs, except that a workload with
	// several input sets cycles through them.
	round(rs *roundStats, r int)
	// traced runs every op of round 0 through the engine three ways:
	// plain, traced with layer spans, and every tenth op recorded and
	// replayed.
	traced(ls *layerStats)
	// details summarizes the workload's own unbounded metrics from the
	// pooled samples of every round.
	details(all *roundStats) map[string]metricValue
}

var workloads = []benchWorkload{
	{name: "paper-testbed", item: "runs", inputs: 1, new: newPaperTestbed},
	{name: "sweep-short-cells", item: "cells", inputs: 1, new: newSweepShortCells},
	{name: "serve-diurnal", item: "virtual seconds", inputs: serveRealizations, new: newServeDiurnal},
	{name: "sharded-burst", item: "jobs", inputs: 1, new: newShardedBurst},
}

// verifyEvery picks the ops repeated with full recording: every tenth.
const verifyEvery = 10

// paperTestbed is the paper's own experiment: serial runs on the default
// test bed (8 IC, 2 EC, a ~600 kB/s diurnal pipe) over four schedulers,
// three size buckets and 100 seeds. The thin pipe keeps the QRSM refit path
// and the slack-rule schedulers busy.
type paperTestbed struct {
	opts []cloudburst.Options
}

func newPaperTestbed(seed int64) instance {
	p := &paperTestbed{}
	for _, s := range []cloudburst.SchedulerName{cloudburst.ICOnly, cloudburst.Greedy, cloudburst.OrderPreserving, cloudburst.SIBS} {
		for _, b := range cloudburst.Buckets() {
			for range 100 {
				// Every run draws its own workload: 1,200 independent inputs
				// average out far better than 100 shared by all twelve
				// configurations, so the metrics hardly move with the seed.
				ws := seed*10000 + int64(len(p.opts))
				p.opts = append(p.opts, cloudburst.Options{Scheduler: s, Bucket: b, WorkloadSeed: ws, NetSeed: ws})
			}
		}
	}
	return p
}

// warmUp runs the first op of each scheduler and bucket, so every
// configuration's code is warm too.
func (p *paperTestbed) warmUp() error {
	for i, o := range p.opts {
		if i > 0 && o.Scheduler == p.opts[i-1].Scheduler && o.Bucket == p.opts[i-1].Bucket {
			continue
		}
		if _, err := cloudburst.Run(o); err != nil {
			return err
		}
	}
	return nil
}

func (p *paperTestbed) round(rs *roundStats, _ int) {
	for i, o := range p.opts {
		start := time.Now()
		r, err := cloudburst.Run(o)
		if !rs.op(time.Since(start), 1, err) {
			continue
		}
		want := outcomeDigest(reportOutcome(r))
		rs.digest.u64(want)
		if i%verifyEvery == verifyEvery-1 {
			verifyRun(rs, o, want)
		}
	}
}

// verifyRun repeats a run with the audit recorder and the invariant checker
// attached, then audits it: the twin must report the identical result and
// audit clean.
func verifyRun(rs *roundStats, o cloudburst.Options, want uint64) {
	o.Audit, o.Verify = true, true
	rs.attempt()
	start := time.Now()
	r, err := cloudburst.Run(o)
	var a *cloudburst.Audit
	if err == nil {
		a, err = r.Audit()
	}
	rs.sample("verified_run_ms", ms(time.Since(start)))
	switch {
	case err != nil:
		rs.fail(fmt.Errorf("verified run: %w", err))
	case !a.OK():
		rs.fail(fmt.Errorf("verified run: audit found %d issue(s), first: %s", len(a.Issues), a.Issues[0]))
	case outcomeDigest(reportOutcome(r)) != want:
		rs.fail(errors.New("verified run: result differs from its plain twin"))
	}
}

func (p *paperTestbed) traced(ls *layerStats) {
	tracedSerial(ls, len(p.opts), 1, 100, func(i int, tr *opTrace, extra trace.Tracer) (uint64, *engine.Result, error) {
		res, err := runEngine(context.Background(), p.opts[i], tr, extra)
		if err != nil {
			return 0, nil, err
		}
		return outcomeDigest(resultOutcome(res)), res, nil
	})
}

func (p *paperTestbed) details(all *roundStats) map[string]metricValue {
	return map[string]metricValue{
		"verified_run_ms_p50": {Value: median(all.extra["verified_run_ms"]), Unit: "ms"},
		"op_ms_p99":           {Value: percentile(all.lat, 0.99), Unit: "ms"},
	}
}

// sweepShortCells is a sweep of many short cells (3 batches of ~6 jobs),
// where per-cell set-up dominates the simulated work. An op is one
// SweepContext call over 3 schedulers × 3 buckets × 40 seeds on two
// workers; a round is 50 of them, 18,000 distinct cells.
type sweepShortCells struct {
	specs []cloudburst.SweepSpec
}

const sweepWorkers = 2

func newSweepShortCells(seed int64) instance {
	w := &sweepShortCells{}
	for k := range int64(50) {
		w.specs = append(w.specs, cloudburst.SweepSpec{
			Schedulers:       []string{string(cloudburst.Greedy), string(cloudburst.OrderPreserving), string(cloudburst.SIBS)},
			Buckets:          []string{string(cloudburst.Small), string(cloudburst.Uniform), string(cloudburst.Large)},
			SeedCount:        40,
			BaseSeed:         seed*100000 + k*40 + 1,
			Batches:          3,
			MeanJobsPerBatch: 6,
		})
	}
	return w
}

func (w *sweepShortCells) sweep(spec cloudburst.SweepSpec) (uint64, int, error) {
	rs, err := cloudburst.SweepContext(context.Background(), spec, cloudburst.SweepConfig{Workers: sweepWorkers})
	if err != nil {
		return 0, 0, err
	}
	d := newDigest()
	for _, r := range rs {
		d.outcome(metricsOutcome(r.Metrics))
	}
	return d.sum(), len(rs), nil
}

func (w *sweepShortCells) warmUp() error {
	_, _, err := w.sweep(w.specs[0])
	return err
}

func (w *sweepShortCells) round(rs *roundStats, _ int) {
	for _, spec := range w.specs {
		start := time.Now()
		d, cells, err := w.sweep(spec)
		if rs.op(time.Since(start), float64(cells), err) {
			rs.digest.u64(d)
		}
	}
}

// planCells expands a spec the way cloudburst.SweepContext plans it.
func planCells(spec cloudburst.SweepSpec) ([]cloudburst.SweepCell, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	cells := spec.Cells()
	for i := range cells {
		o, err := cloudburst.CellOptions(spec, cells[i])
		if err != nil {
			return nil, err
		}
		if err := o.Validate(); err != nil {
			return nil, err
		}
		cells[i].Fingerprint = o.Fingerprint()
	}
	return cells, nil
}

// runCells is one sub-sweep through sweep.RunCells with an engine-level
// runner. newTrace supplies each cell's instrumentation (nil for none);
// done receives every finished cell. It returns the op digest.
func runCells(ctx context.Context, spec cloudburst.SweepSpec, cells []cloudburst.SweepCell,
	newTrace func() *opTrace, done func(c cloudburst.SweepCell, tr *opTrace, res *engine.Result, wall time.Duration)) (uint64, error) {
	rs, err := sweep.RunCells(ctx, cells, sweep.Config{Workers: sweepWorkers}, func(ctx context.Context, c sweep.Cell) (sweep.Metrics, error) {
		start := time.Now()
		tr := newTrace()
		end := tr.span(spanConfig)
		o, err := cloudburst.CellOptions(spec, c)
		end()
		if err != nil {
			return sweep.Metrics{}, err
		}
		res, err := runEngine(ctx, o, tr, nil)
		if err != nil {
			return sweep.Metrics{}, err
		}
		done(c, tr, res, time.Since(start))
		return outcomeMetrics(resultOutcome(res)), nil
	})
	if err != nil {
		return 0, err
	}
	d := newDigest()
	for _, r := range rs {
		d.outcome(metricsOutcome(r.Metrics))
	}
	return d.sum(), nil
}

// outcomeMetrics fills the sweep metrics the digest reads.
func outcomeMetrics(o outcome) sweep.Metrics {
	return sweep.Metrics{
		Makespan: o.Makespan, Speedup: o.Speedup, BurstRatio: o.BurstRatio, ICUtil: o.ICUtil, ECUtil: o.ECUtil,
		TSeq: o.TSeq, Jobs: o.Jobs, Chunks: o.Chunks, Conflicts: o.Conflicts, Replacements: o.Replacements,
		CommitRetries: o.CommitRetries,
	}
}

func (w *sweepShortCells) traced(ls *layerStats) {
	ctx := context.Background()
	noTrace := func() *opTrace { return nil }
	cells := make([][]cloudburst.SweepCell, len(w.specs))
	plain := make([][]time.Duration, len(w.specs))
	want := make([][]uint64, len(w.specs))
	for k, spec := range w.specs {
		ls.attempt()
		start := time.Now()
		cs, err := planCells(spec)
		var d uint64
		if err == nil {
			cells[k], plain[k], want[k] = cs, make([]time.Duration, len(cs)), make([]uint64, len(cs))
			d, err = runCells(ctx, spec, cs, noTrace, func(c cloudburst.SweepCell, _ *opTrace, res *engine.Result, wall time.Duration) {
				plain[k][c.Index], want[k][c.Index] = wall, outcomeDigest(resultOutcome(res))
			})
		}
		if err != nil {
			ls.fail(err)
			continue
		}
		ls.plainWall += time.Since(start)
		ls.roundPlain.u64(d)
	}
	for k, spec := range w.specs {
		ls.attempt()
		start := time.Now()
		cs, err := planCells(spec)
		plan := time.Since(start)
		var d uint64
		if err == nil {
			d, err = runCells(ctx, spec, cs, newOpTrace, func(_ cloudburst.SweepCell, tr *opTrace, res *engine.Result, _ time.Duration) {
				ls.addRun(tr, k, res)
			})
		}
		wall := time.Since(start)
		if err != nil {
			ls.fail(err)
			continue
		}
		ls.mu.Lock()
		ls.self[spanConfig] += plan
		ls.mu.Unlock()
		ls.ops++
		ls.tracedWall += wall
		ls.execCap += sweepWorkers * (wall - plan)
		ls.roundTraced.u64(d)
		ls.sampleHeap()
	}
	for k := 0; k < len(w.specs); k += verifyEvery {
		for i := 0; i < len(cells[k]); i += 36 {
			c := cells[k][i]
			ls.replay(plain[k][i], want[k][i], func(extra trace.Tracer) (uint64, error) {
				o, err := cloudburst.CellOptions(w.specs[k], c)
				if err != nil {
					return 0, err
				}
				res, err := runEngine(ctx, o, nil, extra)
				if err != nil {
					return 0, err
				}
				return outcomeDigest(resultOutcome(res)), nil
			})
		}
	}
}

func (w *sweepShortCells) details(*roundStats) map[string]metricValue { return nil }

// serveDiurnal is the streaming service on the default test bed: diurnal
// arrivals for 24 virtual hours plus the drain, 10-minute windows. An op
// is one admission window, timed from the delivery of the window before
// it; throughput is the virtual time those windows span per wall second.
// The drain is left out of both: its length depends on the seed. Window
// cost grows with served time, because the per-batch snapshot walks a job
// table that keeps a slot for every job admitted. One serve is one
// realization of the arrival process, realizations differ by about 15 % in
// cost, so rounds cycle through twelve of them.
type serveDiurnal struct {
	opts []cloudburst.ServiceOptions
}

const serveRealizations = 12

func newServeDiurnal(seed int64) instance {
	w := &serveDiurnal{}
	for k := range int64(serveRealizations) {
		ws := seed*10 + k
		w.opts = append(w.opts, cloudburst.ServiceOptions{
			Options:        cloudburst.Options{Scheduler: cloudburst.OrderPreserving, WorkloadSeed: ws, NetSeed: ws},
			Arrivals:       cloudburst.DiurnalArrivals,
			WindowSec:      600,
			RefitPeriodSec: 600,
			DurationSec:    24 * 3600,
		})
	}
	return w
}

// admissionWindows is the op count of one serve: the windows that start
// before the admission deadline.
func (w *serveDiurnal) admissionWindows() int {
	return int(w.opts[0].DurationSec / w.opts[0].WindowSec)
}

// warmUp serves three virtual hours.
func (w *serveDiurnal) warmUp() error {
	o := w.opts[0]
	o.DurationSec = 3 * 3600
	svc, err := cloudburst.Serve(context.Background(), o)
	if err != nil {
		return err
	}
	_, err = svc.Wait()
	return err
}

func (w *serveDiurnal) round(rs *roundStats, r int) {
	o := w.opts[r%len(w.opts)]
	rs.attempt()
	svc, err := cloudburst.Serve(context.Background(), o)
	if err != nil {
		rs.fail(err)
		return
	}
	var lat []float64
	var first, prev time.Time
	windows := 0
	for rep := range svc.Reports() {
		if rep.Start >= o.DurationSec {
			continue
		}
		now := time.Now()
		if windows == 0 {
			first = now
		} else {
			lat = append(lat, ms(now.Sub(prev)))
		}
		prev = now
		windows++
	}
	rep, err := svc.Wait()
	switch {
	case err != nil:
		rs.fail(err)
	case rep.StopCause != engine.StopDuration:
		rs.fail(fmt.Errorf("serve stopped by %q, want %q", rep.StopCause, engine.StopDuration))
	case windows != w.admissionWindows():
		rs.fail(fmt.Errorf("serve delivered %d admission windows, want %d", windows, w.admissionWindows()))
	default:
		rs.ops += windows
		rs.busy += prev.Sub(first)
		rs.items += float64(windows-1) * o.WindowSec
		rs.lat = append(rs.lat, lat...)
		rs.digest.u64(serveDigest(rep.Fingerprint, rep.Fed, rep.Windows))
	}
}

func (w *serveDiurnal) traced(ls *layerStats) {
	tracedSerial(ls, 1, float64(w.admissionWindows()), 0, func(_ int, tr *opTrace, extra trace.Tracer) (uint64, *engine.Result, error) {
		onWindow := func(rep window.Report) {
			if tr != nil && rep.Index%36 == 35 {
				defer tr.span(spanHeap)()
				ls.sampleHeap()
			}
		}
		res, err := serveEngine(context.Background(), w.opts[0], tr, extra, onWindow)
		switch {
		case err != nil:
			return 0, nil, err
		case res.StopCause != engine.StopDuration:
			return 0, nil, fmt.Errorf("serve stopped by %q, want %q", res.StopCause, engine.StopDuration)
		}
		return serveDigest(res.Fingerprint, res.Fed, res.Windows), res.Result, nil
	})
}

func (w *serveDiurnal) details(all *roundStats) map[string]metricValue {
	return map[string]metricValue{"op_ms_p99": {Value: percentile(all.lat, 0.99), Unit: "ms"}}
}

// shardedBurst is Greedy placement of two 2,600-job batches on 4 IC + 400
// EC machines behind 512 MB/s links, with two scheduler shards. An op is
// one Shards=2 run; a Shards=1 run on the identical input alternates with
// it, for the speed-up.
type shardedBurst struct {
	opts []cloudburst.Options // the Shards=2 runs
}

func newShardedBurst(seed int64) instance {
	w := &shardedBurst{}
	for i := range int64(25) {
		ws := seed*1000 + i
		w.opts = append(w.opts, cloudburst.Options{
			Scheduler:        cloudburst.Greedy,
			Batches:          2,
			MeanJobsPerBatch: 2600,
			BatchIntervalSec: 30,
			ICMachines:       4,
			ECMachines:       400,
			UploadMeanBW:     512 << 20,
			DownloadMeanBW:   512 << 20,
			WorkloadSeed:     ws,
			NetSeed:          ws,
			Shards:           &cloudburst.ShardOptions{Count: 2},
		})
	}
	return w
}

func single(o cloudburst.Options) cloudburst.Options {
	o.Shards = &cloudburst.ShardOptions{Count: 1}
	return o
}

func (w *shardedBurst) warmUp() error {
	if _, err := cloudburst.Run(single(w.opts[0])); err != nil {
		return err
	}
	_, err := cloudburst.Run(w.opts[0])
	return err
}

func (w *shardedBurst) round(rs *roundStats, _ int) {
	for i, o := range w.opts {
		// Alternate which side runs first, so neither always inherits the
		// other's warm caches.
		if i%2 == 0 {
			w.runSingle(rs, o)
			w.runSharded(rs, o)
		} else {
			w.runSharded(rs, o)
			w.runSingle(rs, o)
		}
	}
}

func (w *shardedBurst) runSingle(rs *roundStats, o cloudburst.Options) {
	rs.attempt()
	start := time.Now()
	_, err := cloudburst.Run(single(o))
	rs.sample("single_run_ms", ms(time.Since(start)))
	if err != nil {
		rs.fail(err)
	}
}

func (w *shardedBurst) runSharded(rs *roundStats, o cloudburst.Options) {
	start := time.Now()
	r, err := cloudburst.Run(o)
	d := time.Since(start)
	if err == nil && r.Conflicts == 0 {
		err = errors.New("sharded run committed without a single conflict")
	}
	jobs := 0
	if r != nil {
		jobs = r.Jobs
	}
	if rs.op(d, float64(jobs), err) {
		rs.digest.u64(outcomeDigest(reportOutcome(r)))
	}
}

func (w *shardedBurst) traced(ls *layerStats) {
	tracedSerial(ls, len(w.opts), 1, 5, func(i int, tr *opTrace, extra trace.Tracer) (uint64, *engine.Result, error) {
		res, err := runEngine(context.Background(), w.opts[i], tr, extra)
		if err != nil {
			return 0, nil, err
		}
		return outcomeDigest(resultOutcome(res)), res, nil
	})
}

func (w *shardedBurst) details(all *roundStats) map[string]metricValue {
	single := median(all.extra["single_run_ms"])
	return map[string]metricValue{
		"single_run_ms_p50": {Value: single, Unit: "ms"},
		"shard_speedup":     {Value: single / median(all.lat), Unit: "ratio"},
	}
}

// tracedSerial is the traced round of a workload whose ops are engine runs
// executed one after another: every run goes plain, then traced, and every
// tenth one again recorded and replayed. opsPerRun is how many workload
// ops one run counts for; heapEvery samples the live heap between traced
// runs (0: never). run executes run i with the given instrumentation and
// returns its result digest.
func tracedSerial(ls *layerStats, n int, opsPerRun float64, heapEvery int,
	run func(i int, tr *opTrace, extra trace.Tracer) (uint64, *engine.Result, error)) {
	plain := make([]time.Duration, n)
	want := make([]uint64, n)
	ok := make([]bool, n)
	for i := range n {
		ls.attempt()
		start := time.Now()
		d, _, err := run(i, nil, nil)
		plain[i] = time.Since(start)
		if err != nil {
			ls.fail(err)
			continue
		}
		want[i], ok[i] = d, true
		ls.plainWall += plain[i]
		ls.roundPlain.u64(d)
	}
	for i := range n {
		if !ok[i] {
			continue
		}
		ls.attempt()
		start := time.Now()
		tr := newOpTrace()
		d, res, err := run(i, tr, nil)
		if err == nil && d != want[i] {
			err = fmt.Errorf("traced run %d digest %#x, plain run %#x", i, d, want[i])
		}
		if err != nil {
			ls.fail(err)
			continue
		}
		ls.addRun(tr, i, res)
		ls.ops += opsPerRun
		ls.tracedWall += tr.returned
		ls.roundTraced.u64(d)
		ls.execCap += time.Since(start)
		if heapEvery > 0 && i%heapEvery == heapEvery-1 {
			ls.sampleHeap()
		}
	}
	for i := 0; i < n; i += verifyEvery {
		if ok[i] {
			ls.replay(plain[i], want[i], func(extra trace.Tracer) (uint64, error) {
				d, _, err := run(i, nil, extra)
				return d, err
			})
		}
	}
}
