package experiments

import (
	"context"
	"fmt"

	"cloudburst/internal/engine"
	"cloudburst/internal/job"
	"cloudburst/internal/netsim"
	"cloudburst/internal/qrsm"
	"cloudburst/internal/sim"
	"cloudburst/internal/stats"
	"cloudburst/internal/sweep"
	"cloudburst/internal/workload"
)

// Figure3QRSM reproduces the quadratic response surface of Fig. 3: it fits
// the QRSM on a bootstrap production dataset and reports fit quality plus a
// slice of the fitted surface (processing time over size × images, other
// features fixed at typical values).
func Figure3QRSM(seed int64) (*Table, error) {
	fs, ys := workload.BootstrapSet(seed, 400, 0.12)
	est := qrsm.NewEstimator()
	est.Bootstrap(fs, ys)
	m := est.GlobalModel()
	if !m.Fitted() {
		return nil, fmt.Errorf("figure3: QRSM did not fit")
	}

	t := &Table{
		Title:  "Figure 3 — QRSM for processing time (fitted surface slice)",
		Header: []string{"size_mb", "ipp=0.6", "ipp=1.5", "ipp=2.8"},
	}
	// Slice of the surface over size × images-per-page for a canonical
	// marketing document, holding every other feature fixed so the slice
	// is comparable across rows and stays inside the training cloud.
	canonical := func(size, ipp float64) job.Features {
		pages := 1 + size*0.42
		images := ipp * pages
		return job.Features{
			SizeMB: size, Pages: pages, Images: images,
			AvgImageMB:    size * 0.6 / images,
			ImagesPerPage: ipp,
			ResolutionDPI: 300, ColorFraction: 0.5,
			TextRatio: 0.5, Coverage: 0.6,
			Class: job.Marketing,
		}
	}
	for _, size := range []float64{25, 75, 150, 225, 300} {
		row := []string{fmtF(size, 0)}
		for _, ipp := range []float64{0.6, 1.5, 2.8} {
			row = append(row, fmtF(est.Estimate(canonical(size, ipp)), 0)+"s")
		}
		t.AddRow(row...)
	}
	// Hold-out accuracy.
	truth := workload.NewTruthModel(0.12)
	var relErr stats.Summary
	hold := stats.NewRNG(seed + 2)
	for i := 0; i < 300; i++ {
		f := workload.SynthFeatures(hold, hold.Uniform(1, 300))
		want := truth.Mean(f)
		relErr.Add(absF(est.Estimate(f)-want) / want)
	}
	t.AddNote("training R²=%.4f RMSE=%.1fs; hold-out mean relative error=%.1f%%",
		m.R2(), m.RMSE(), 100*relErr.Mean())
	return t, nil
}

func absF(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// Figure4aTimeOfDay reproduces the time-of-day bandwidth model of Fig. 4(a):
// a 48-hour probe simulation against a diurnal pipe, reporting the learned
// per-slot estimate next to the hidden truth.
func Figure4aTimeOfDay(seed int64) (*Table, error) {
	eng := sim.NewEngine()
	truth := netsim.DiurnalProfile(600*1024, 0.5)
	link := netsim.NewLink(eng, netsim.LinkConfig{
		Name:     "uplink",
		Profile:  truth,
		JitterCV: 0.2,
		Threads:  netsim.DefaultThreadModel(),
	}, stats.NewRNG(seed))
	pred := netsim.NewPredictor(24, 0.3, 300*1024)
	tuner := netsim.NewTuner(link.ThreadModel(), 8)
	netsim.NewProber(eng, link, pred, tuner, netsim.ProberConfig{Period: 300})
	eng.RunUntil(2 * netsim.Day)

	t := &Table{
		Title:  "Figure 4(a) — learned time-of-day bandwidth (kB/s) vs hidden truth",
		Header: []string{"hour", "learned", "truth", "rel_err"},
	}
	est := pred.SlotEstimates()
	for h := 0; h < 24; h += 3 {
		tr := truth.Slots[h]
		rel := "n/a"
		if est[h] > 0 {
			rel = fmtF(100*absF(est[h]-tr)/tr, 1) + "%"
		}
		t.AddRow(fmt.Sprintf("%02d:00", h), fmtF(est[h]/1024, 0), fmtF(tr/1024, 0), rel)
	}
	t.AddNote("%d probes over 48h; EWMA alpha=0.3; thread-tuned transfers", pred.Observations())
	t.AddNote("night-slot estimates saturate near the thread-limit ceiling (~500 kB/s): the " +
		"learner reports achievable throughput, which is what the schedulers need")
	return t, nil
}

// Figure4bThreads reproduces Fig. 4(b): the tuned upload thread count over
// the day, which tracks the offered bandwidth.
func Figure4bThreads(seed int64) (*Table, error) {
	eng := sim.NewEngine()
	truth := netsim.DiurnalProfile(600*1024, 0.5)
	link := netsim.NewLink(eng, netsim.LinkConfig{
		Name:     "uplink",
		Profile:  truth,
		JitterCV: 0.1,
		Threads:  netsim.DefaultThreadModel(),
	}, stats.NewRNG(seed))
	pred := netsim.NewPredictor(24, 0.3, 300*1024)
	tuner := netsim.NewTuner(link.ThreadModel(), 1)
	tuner.RecordHistory()
	netsim.NewProber(eng, link, pred, tuner, netsim.ProberConfig{Period: 180})
	eng.RunUntil(netsim.Day)

	t := &Table{
		Title:  "Figure 4(b) — tuned upload threads over the day",
		Header: []string{"hour", "threads", "offered_kBps"},
	}
	// Reconstruct the thread trajectory from the tuner history.
	hist := tuner.History()
	for h := 0; h < 24; h += 3 {
		at := float64(h) * 3600
		threads := 0
		for _, s := range hist {
			if s.T <= at+3600 {
				threads = s.Threads
			}
		}
		t.AddRow(fmt.Sprintf("%02d:00", h), fmt.Sprintf("%d", threads), fmtF(truth.Slots[h]/1024, 0))
	}
	t.AddNote("neighbour-memory tuner, %d observations; higher offered bandwidth sustains more threads", len(hist))
	return t, nil
}

// Figure6Makespan reproduces Fig. 6: makespan of ICOnly vs Greedy vs Op
// (plus SIBS) on the uniform bucket; the paper reports bursting ≈10%% better
// than IC-only with Greedy ≈ Op.
func Figure6Makespan(seed int64) (*Table, error) {
	reps := DefaultReplications(seed, 3)
	t := &Table{
		Title:  "Figure 6 — makespan by scheduler (uniform bucket, mean of 3 runs)",
		Header: []string{"scheduler", "makespan_s", "vs_ICOnly"},
	}
	factories := schedulerFactories()
	var base float64
	for _, name := range []string{"ICOnly", "Greedy", "Op", "SIBS"} {
		rs, err := RunReplicated(RunSpec{
			Bucket:    workload.UniformMix,
			Scheduler: factories[name],
		}, reps)
		if err != nil {
			return nil, err
		}
		mk := meanOf(rs, func(r *engine.Result) float64 { return r.Makespan })
		if name == "ICOnly" {
			base = mk
		}
		t.AddRow(name, fmtF(mk, 0), fmtF(100*(mk-base)/base, 1)+"%")
	}
	t.AddNote("paper: cloud bursting ≈10%% faster than IC-only; Greedy ≈ Op")
	return t, nil
}

// completionStats runs one scheduler on one bucket and summarizes the
// completion-time series of Figs. 7–8 (peaks = downstream stalls,
// valleys = early outputs).
func completionStats(bucket workload.Bucket, name string, seed int64, jitter float64) (peaks int, totalWait, maxPeak float64, valleys int, err error) {
	rs, err := RunReplicated(RunSpec{
		Bucket:    bucket,
		Engine:    engine.Config{JitterCV: jitter},
		Scheduler: schedulerFactories()[name],
	}, DefaultReplications(seed, 3))
	if err != nil {
		return 0, 0, 0, 0, err
	}
	var p, v stats.Summary
	var w, mp stats.Summary
	for _, r := range rs {
		pk, tw, m, vc := r.Records.InOrderStats()
		p.Add(float64(pk))
		w.Add(tw)
		mp.Add(m)
		v.Add(float64(vc))
	}
	return int(p.Mean()), w.Mean(), mp.Mean(), int(v.Mean()), nil
}

// Figure7Completions reproduces Fig. 7: completion-order behaviour for all
// three buckets — the Greedy scheduler stalls the in-order consumer more,
// the Order Preserving scheduler produces more valleys (early outputs).
func Figure7Completions(seed int64) (*Table, error) {
	t := &Table{
		Title:  "Figure 7 — in-order completion behaviour by bucket (mean of 3 runs)",
		Header: []string{"bucket", "scheduler", "peaks", "stall_s", "max_peak_s", "valleys"},
	}
	for _, bucket := range workload.Buckets() {
		for _, name := range []string{"Greedy", "Op"} {
			p, w, m, v, err := completionStats(bucket, name, seed, 0.15)
			if err != nil {
				return nil, err
			}
			t.AddRow(bucket.String(), name, fmt.Sprintf("%d", p), fmtF(w, 0), fmtF(m, 0), fmt.Sprintf("%d", v))
		}
	}
	t.AddNote("paper: Greedy shows more/higher peaks (stalls); Op more valleys (early outputs)")
	return t, nil
}

// Figure8LargeCompletions reproduces Fig. 8: the same contrast amplified on
// the large bucket.
func Figure8LargeCompletions(seed int64) (*Table, error) {
	t := &Table{
		Title:  "Figure 8 — completion behaviour, large bucket (mean of 3 runs)",
		Header: []string{"scheduler", "peaks", "stall_s", "max_peak_s", "valleys"},
	}
	for _, name := range []string{"ICOnly", "Greedy", "Op", "SIBS"} {
		p, w, m, v, err := completionStats(workload.LargeBias, name, seed, 0.15)
		if err != nil {
			return nil, err
		}
		t.AddRow(name, fmt.Sprintf("%d", p), fmtF(w, 0), fmtF(m, 0), fmt.Sprintf("%d", v))
	}
	return t, nil
}

// Figure9OOMetric reproduces Fig. 9: the OO metric (2-minute sampling) for
// the large bucket under high network variation — the Order Preserving
// scheduler keeps more ordered data available than Greedy. The series is
// shown at strict tolerance; the summary note reports the time-averaged
// metric at both tolerance 0 and the paper's Fig. 10 tolerance of 4 (the
// strict-order contrast is noisier, the tol=4 one is robust).
func Figure9OOMetric(seed int64) (*Table, error) {
	reps := DefaultReplications(seed, 5)
	series := map[string]*stats.TimeSeries{}
	meanAt := map[string]map[int]float64{}
	for _, name := range []string{"Greedy", "Op"} {
		rs, err := RunReplicated(RunSpec{
			Bucket:    workload.LargeBias,
			Engine:    engine.Config{JitterCV: 0.5},
			Scheduler: schedulerFactories()[name],
		}, reps)
		if err != nil {
			return nil, err
		}
		// Average the OO series across replications on a common grid.
		agg := &stats.TimeSeries{Name: name}
		end := rs[0].Makespan
		meanAt[name] = map[int]float64{}
		for _, tol := range []int{0, 4} {
			var s stats.Summary
			for _, r := range rs {
				for tt := 0.0; tt <= r.Makespan; tt += 120 {
					_, ot := r.Records.OOAt(tt, tol)
					s.Add(float64(ot) / (1 << 20))
				}
			}
			meanAt[name][tol] = s.Mean()
		}
		for tt := 0.0; tt <= end; tt += 120 {
			var v float64
			for _, r := range rs {
				_, ot := r.Records.OOAt(tt, 0)
				v += float64(ot)
			}
			agg.Append(tt, v/float64(len(rs)))
		}
		series[name] = agg
	}
	t := &Table{
		Title:  "Figure 9 — OO metric (ordered MB available), large bucket, high variation",
		Header: []string{"t_min", "Greedy_MB", "Op_MB"},
	}
	for i := 0; i < series["Op"].Len(); i += 8 {
		p := series["Op"].Points[i]
		t.AddRow(fmtF(p.T/60, 0),
			fmtF(series["Greedy"].At(p.T)/(1<<20), 0),
			fmtF(p.V/(1<<20), 0))
	}
	t.AddNote("time-averaged ordered data, tol=4: Greedy %.0fMB, Op %.0fMB (paper: Op > Greedy)",
		meanAt["Greedy"][4], meanAt["Op"][4])
	t.AddNote("at strict tolerance: Greedy %.0fMB, Op %.0fMB",
		meanAt["Greedy"][0], meanAt["Op"][0])
	return t, nil
}

// Figure10RelativeOO reproduces Fig. 10: OO metric relative to the IC-only
// baseline with tolerance 4 on the large bucket, for Greedy, Op and SIBS.
func Figure10RelativeOO(seed int64) (*Table, error) {
	reps := DefaultReplications(seed, 3)
	run := func(name string) ([]*engine.Result, error) {
		return RunReplicated(RunSpec{
			Bucket:    workload.LargeBias,
			Engine:    engine.Config{JitterCV: 0.3},
			Scheduler: schedulerFactories()[name],
		}, reps)
	}
	base, err := run("ICOnly")
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Figure 10 — OO metric relative to ICOnly (tol=4, large bucket)",
		Header: []string{"scheduler", "mean_rel_MB", "final_rel_MB"},
	}
	for _, name := range []string{"Greedy", "Op", "SIBS"} {
		rs, err := run(name)
		if err != nil {
			return nil, err
		}
		var mean, final stats.Summary
		for i, r := range rs {
			end := r.Makespan
			if base[i].Makespan > end {
				end = base[i].Makespan
			}
			var relSum float64
			n := 0
			var lastRel float64
			for tt := 0.0; tt <= end; tt += 120 {
				_, a := r.Records.OOAt(tt, 4)
				_, b := base[i].Records.OOAt(tt, 4)
				rel := float64(a-b) / (1 << 20)
				relSum += rel
				lastRel = rel
				n++
			}
			mean.Add(relSum / float64(n))
			final.Add(lastRel)
		}
		t.AddRow(name, fmtF(mean.Mean(), 0), fmtF(final.Mean(), 0))
	}
	t.AddNote("paper: Op and SIBS above Greedy at almost all sampling points")
	return t, nil
}

// SchedulerMetrics computes the Table I row set for one bucket. The full
// scheduler × replication grid executes as one sweep — every cell
// concurrent on the shared bounded pool — and the row means come from the
// sweep aggregation layer rather than a per-scheduler replication loop.
func SchedulerMetrics(bucket workload.Bucket, seed int64, schedNames []string) (*Table, error) {
	groups, err := scheduleSweep(bucket, seed, schedNames, 3)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  fmt.Sprintf("Table I — performance metrics (%s bucket, mean of 3 runs)", bucket),
		Header: []string{"scheduler", "IC-Util", "EC-Util", "Burst-ratio", "Speedup", "Makespan_s"},
	}
	for _, g := range groups {
		t.AddRow(g.Key,
			fmtF(100*g.Metric("ic_util").Mean, 1),
			fmtF(100*g.Metric("ec_util").Mean, 1),
			fmtF(g.Metric("burst_ratio").Mean, 2),
			fmtF(g.Metric("speedup").Mean, 2),
			fmtF(g.Metric("makespan").Mean, 0),
		)
	}
	return t, nil
}

// scheduleSweep runs the scheduler × replication grid for one bucket on the
// sweep engine and aggregates the metrics by scheduler, preserving the
// caller's scheduler order (cells expand scheduler-major, and aggregation
// groups appear in first-appearance order).
func scheduleSweep(bucket workload.Bucket, seed int64, schedNames []string, nReps int) ([]sweep.Group, error) {
	reps := DefaultReplications(seed, nReps)
	factories := schedulerFactories()
	var cells []sweep.Cell
	for _, name := range schedNames {
		if factories[name] == nil {
			return nil, fmt.Errorf("experiments: unknown scheduler %q", name)
		}
		for _, rep := range reps {
			cells = append(cells, sweep.Cell{
				Index:        len(cells),
				Scheduler:    name,
				Bucket:       bucket.String(),
				Seed:         rep.WorkloadSeed,
				WorkloadSeed: rep.WorkloadSeed,
				NetSeed:      rep.NetSeed,
			})
		}
	}
	metrics, err := sweep.Exec(context.Background(), cells, sweep.ExecConfig[sweep.Metrics]{},
		func(ctx context.Context, c sweep.Cell) (sweep.Metrics, error) {
			res, err := runOne(ctx, RunSpec{Bucket: bucket, Scheduler: factories[c.Scheduler]},
				Replication{WorkloadSeed: c.WorkloadSeed, NetSeed: c.NetSeed})
			if err != nil {
				return sweep.Metrics{}, err
			}
			return resultMetrics(res), nil
		})
	if err != nil {
		return nil, err
	}
	results := make([]sweep.Result, len(cells))
	for i := range cells {
		results[i] = sweep.Result{Cell: cells[i], Metrics: metrics[i]}
	}
	return sweep.Aggregate(results, sweep.GroupByScheduler), nil
}

// Table1Metrics reproduces Table I: IC-Util, EC-Util, Burst-ratio, Speedup
// for Greedy and Op on the large and uniform buckets.
func Table1Metrics(seed int64) ([]*Table, error) {
	var out []*Table
	for _, bucket := range []workload.Bucket{workload.LargeBias, workload.UniformMix} {
		t, err := SchedulerMetrics(bucket, seed, []string{"Greedy", "Op"})
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// SIBSOptimization reproduces Sec. V-B4: applying size-interval bandwidth
// splitting to the Order Preserving scheduler on the large bucket raises EC
// utilization (paper: to ≈58%%, IC ≈81%%) and nudges speedup up (≈2%%).
func SIBSOptimization(seed int64) (*Table, error) {
	t, err := SchedulerMetrics(workload.LargeBias, seed, []string{"Op", "SIBS"})
	if err != nil {
		return nil, err
	}
	t.Title = "Sec. V-B4 — SIBS optimization on the Order Preserving scheduler (large bucket)"
	t.AddNote("paper: EC util rises to ≈58%%, IC ≈81%%, speedup +≈2%% over Op")
	return t, nil
}

// All runs every figure and table driver in paper order.
func All(seed int64) ([]*Table, error) {
	var out []*Table
	add := func(t *Table, err error) error {
		if err != nil {
			return err
		}
		out = append(out, t)
		return nil
	}
	if err := add(Figure3QRSM(seed)); err != nil {
		return nil, err
	}
	if err := add(Figure4aTimeOfDay(seed)); err != nil {
		return nil, err
	}
	if err := add(Figure4bThreads(seed)); err != nil {
		return nil, err
	}
	if err := add(Figure6Makespan(seed)); err != nil {
		return nil, err
	}
	if err := add(Figure7Completions(seed)); err != nil {
		return nil, err
	}
	if err := add(Figure8LargeCompletions(seed)); err != nil {
		return nil, err
	}
	if err := add(Figure9OOMetric(seed)); err != nil {
		return nil, err
	}
	if err := add(Figure10RelativeOO(seed)); err != nil {
		return nil, err
	}
	t1, err := Table1Metrics(seed)
	if err != nil {
		return nil, err
	}
	out = append(out, t1...)
	if err := add(SIBSOptimization(seed)); err != nil {
		return nil, err
	}
	return out, nil
}
