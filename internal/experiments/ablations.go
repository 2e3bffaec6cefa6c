package experiments

import (
	"fmt"

	"cloudburst/internal/engine"
	"cloudburst/internal/netsim"
	"cloudburst/internal/sched"
	"cloudburst/internal/workload"
)

// The ablation drivers quantify the design choices DESIGN.md calls out:
// chunking, slack-gated bursting, size-interval splitting, rescheduling
// strategies, QRSM estimation error, and the EWMA weight.

// metricsRow runs one (scheduler, engine config) pair and returns the
// summary cells used by all ablation tables.
func metricsRow(bucket workload.Bucket, wcfg workload.Config, ecfg engine.Config,
	mk func() sched.Scheduler, seed int64) ([]string, error) {
	rs, err := RunReplicated(RunSpec{
		Bucket:    bucket,
		Workload:  wcfg,
		Engine:    ecfg,
		Scheduler: mk,
	}, DefaultReplications(seed, 3))
	if err != nil {
		return nil, err
	}
	var peakWait, valleys float64
	for _, r := range rs {
		_, w, _, v := r.Records.InOrderStats()
		peakWait += w
		valleys += float64(v)
	}
	n := float64(len(rs))
	return []string{
		fmtF(meanOf(rs, func(r *engine.Result) float64 { return r.Makespan }), 0),
		fmtF(meanOf(rs, func(r *engine.Result) float64 { return r.Speedup }), 2),
		fmtF(meanOf(rs, func(r *engine.Result) float64 { return r.BurstRatio }), 2),
		fmtF(100*meanOf(rs, func(r *engine.Result) float64 { return r.ECUtil }), 1),
		fmtF(peakWait/n, 0),
		fmtF(valleys/n, 0),
	}, nil
}

var ablationHeader = []string{"variant", "makespan_s", "speedup", "burst", "EC-Util%", "stall_s", "valleys"}

// AblationChunking compares the Order Preserving scheduler with and without
// the chunk pass (uniform bucket, where size variance triggers it).
func AblationChunking(seed int64) (*Table, error) {
	t := &Table{Title: "Ablation — Op chunk pass (uniform bucket)", Header: ablationHeader}
	variants := []struct {
		name string
		mk   func() sched.Scheduler
	}{
		{"Op(chunking)", func() sched.Scheduler { return sched.OrderPreserving{} }},
		{"Op(no chunking)", func() sched.Scheduler {
			return sched.OrderPreserving{Cfg: sched.Config{ChunkStdThresholdMB: 1e12}}
		}},
		{"Op(chunk 25MB)", func() sched.Scheduler {
			return sched.OrderPreserving{Cfg: sched.Config{ChunkTargetMB: 25}}
		}},
		{"Op(chunk 100MB)", func() sched.Scheduler {
			return sched.OrderPreserving{Cfg: sched.Config{ChunkTargetMB: 100}}
		}},
	}
	for _, v := range variants {
		row, err := metricsRow(workload.UniformMix, workload.Config{}, engine.Config{}, v.mk, seed)
		if err != nil {
			return nil, err
		}
		t.AddRow(append([]string{v.name}, row...)...)
	}
	return t, nil
}

// AblationSlackMargin sweeps the τ safety margin of the slack rule.
func AblationSlackMargin(seed int64) (*Table, error) {
	t := &Table{Title: "Ablation — slack margin τ (uniform bucket)", Header: ablationHeader}
	for _, margin := range []float64{0, 60, 180, 600} {
		margin := margin
		row, err := metricsRow(workload.UniformMix, workload.Config{}, engine.Config{},
			func() sched.Scheduler {
				return sched.OrderPreserving{Cfg: sched.Config{SlackMargin: margin}}
			}, seed)
		if err != nil {
			return nil, err
		}
		t.AddRow(append([]string{fmt.Sprintf("tau=%.0fs", margin)}, row...)...)
	}
	t.AddNote("larger margins burst less: ordering improves, utilization of the EC drops")
	return t, nil
}

// AblationGreedyTracking compares the paper-literal Greedy (no within-batch
// bookkeeping beyond the observable upload queue) with the repaired
// tracking variant.
func AblationGreedyTracking(seed int64) (*Table, error) {
	t := &Table{Title: "Ablation — Greedy within-batch bookkeeping (uniform bucket)", Header: ablationHeader}
	for name, mk := range map[string]func() sched.Scheduler{
		"Greedy(literal)":  func() sched.Scheduler { return sched.Greedy{} },
		"Greedy(tracking)": func() sched.Scheduler { return sched.GreedyTracking{} },
	} {
		row, err := metricsRow(workload.UniformMix, workload.Config{}, engine.Config{}, mk, seed)
		if err != nil {
			return nil, err
		}
		t.AddRow(append([]string{name}, row...)...)
	}
	return t, nil
}

// AblationRescheduling toggles the Sec. IV-D strategies on the Order
// Preserving scheduler.
func AblationRescheduling(seed int64) (*Table, error) {
	t := &Table{Title: "Ablation — rescheduling strategies (large bucket)", Header: ablationHeader}
	for _, v := range []struct {
		name string
		on   bool
	}{{"Op", false}, {"Op+resched", true}} {
		row, err := metricsRow(workload.LargeBias, workload.Config{},
			engine.Config{Rescheduling: v.on},
			func() sched.Scheduler { return sched.OrderPreserving{} }, seed)
		if err != nil {
			return nil, err
		}
		t.AddRow(append([]string{v.name}, row...)...)
	}
	t.AddNote("steal-back reclaims stranded uploads when the IC idles; idle pull bursts tail jobs")
	return t, nil
}

// AblationQRSMNoise sweeps the processing-time noise the estimator faces —
// the paper notes estimation errors drive the Greedy/Op gap.
func AblationQRSMNoise(seed int64) (*Table, error) {
	t := &Table{
		Title:  "Ablation — processing-time noise vs ordering robustness (uniform bucket)",
		Header: append([]string{"noise_cv"}, ablationHeader[1:]...),
	}
	for _, cv := range []float64{0.01, 0.12, 0.3, 0.6} {
		row, err := metricsRow(workload.UniformMix,
			workload.Config{NoiseCV: cv},
			engine.Config{NoiseCV: cv},
			func() sched.Scheduler { return sched.OrderPreserving{} }, seed)
		if err != nil {
			return nil, err
		}
		t.AddRow(append([]string{fmtF(cv, 2)}, row...)...)
	}
	return t, nil
}

// AblationEWMAAlpha sweeps the network estimator weight.
func AblationEWMAAlpha(seed int64) (*Table, error) {
	t := &Table{
		Title:  "Ablation — EWMA weight α for the bandwidth predictor (large bucket, high jitter)",
		Header: append([]string{"alpha"}, ablationHeader[1:]...),
	}
	for _, a := range []float64{0.05, 0.3, 0.7, 1.0} {
		row, err := metricsRow(workload.LargeBias, workload.Config{},
			engine.Config{PredictorAlpha: a, JitterCV: 0.5},
			func() sched.Scheduler { return sched.OrderPreserving{} }, seed)
		if err != nil {
			return nil, err
		}
		t.AddRow(append([]string{fmtF(a, 2)}, row...)...)
	}
	return t, nil
}

// AblationSIBSGate sweeps the CV gate that collapses size-interval
// splitting to a single interval.
func AblationSIBSGate(seed int64) (*Table, error) {
	t := &Table{
		Title:  "Ablation — SIBS CV gate (large bucket)",
		Header: append([]string{"cv_gate"}, ablationHeader[1:]...),
	}
	for _, gate := range []float64{-1, 0.2, 0.6, 2.0} {
		gate := gate
		label := fmtF(gate, 1)
		if gate < 0 {
			label = "off"
		}
		row, err := metricsRow(workload.LargeBias, workload.Config{}, engine.Config{},
			func() sched.Scheduler { return &sched.SIBS{CVGate: gate} }, seed)
		if err != nil {
			return nil, err
		}
		t.AddRow(append([]string{label}, row...)...)
	}
	t.AddNote("gate 2.0 always collapses to one interval (≈Op); off always splits")
	return t, nil
}

// AblationOutages injects throttling episodes of growing severity and
// compares how ICOnly (immune), Greedy, and Op absorb them — the failure-
// injection study for the slackness mechanism.
func AblationOutages(seed int64) (*Table, error) {
	t := &Table{
		Title:  "Ablation — network outage severity (uniform bucket)",
		Header: append([]string{"outages", "sched"}, ablationHeader[1:]...),
	}
	severities := []struct {
		name  string
		model *netsim.OutageModel
	}{
		{"none", nil},
		{"mild", &netsim.OutageModel{MeanTimeBetween: 900, MeanDuration: 60, ThrottleFactor: 0.2}},
		{"harsh", &netsim.OutageModel{MeanTimeBetween: 300, MeanDuration: 120, ThrottleFactor: 0}},
	}
	for _, sev := range severities {
		for _, name := range []string{"Greedy", "Op"} {
			row, err := metricsRow(workload.UniformMix, workload.Config{},
				engine.Config{Outages: sev.model},
				schedulerFactories()[name], seed)
			if err != nil {
				return nil, err
			}
			t.AddRow(append([]string{sev.name, name}, row...)...)
		}
	}
	t.AddNote("hard outages stall the EC round trip; the slack rule limits the damage to jobs already in flight")
	return t, nil
}

// Ablations runs every ablation driver.
func Ablations(seed int64) ([]*Table, error) {
	drivers := []func(int64) (*Table, error){
		AblationChunking, AblationSlackMargin, AblationGreedyTracking,
		AblationRescheduling, AblationQRSMNoise, AblationEWMAAlpha, AblationSIBSGate,
		AblationOutages,
	}
	var out []*Table
	for _, d := range drivers {
		t, err := d(seed)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}
