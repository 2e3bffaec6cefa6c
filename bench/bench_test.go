package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"cloudburst"
	"cloudburst/internal/engine"
	"cloudburst/internal/job"
	"cloudburst/internal/sched"
)

// tiny returns each workload cut down to one op (the serve to two virtual
// hours), so a round and a traced round take well under a second each.
func tiny(t *testing.T) map[string]instance {
	t.Helper()
	p := newPaperTestbed(1).(*paperTestbed)
	// SIBS exercises the BoundsPublisher passthrough, Greedy the plain
	// wrapper; the tenth op is the verified one.
	p.opts = append(append([]cloudburst.Options(nil), p.opts[1100:1109]...), p.opts[300])
	s := newSweepShortCells(1).(*sweepShortCells)
	s.specs = s.specs[:1]
	s.specs[0].SeedCount = 1
	v := newServeDiurnal(1).(*serveDiurnal)
	v.opts = v.opts[:1]
	v.opts[0].DurationSec = 2 * 3600
	b := newShardedBurst(1).(*shardedBurst)
	b.opts = b.opts[:1]
	return map[string]instance{
		"paper-testbed":     p,
		"sweep-short-cells": s,
		"serve-diurnal":     v,
		"sharded-burst":     b,
	}
}

func TestTinyWorkloads(t *testing.T) {
	for name, inst := range tiny(t) {
		t.Run(name, func(t *testing.T) {
			if err := inst.warmUp(); err != nil {
				t.Fatal(err)
			}
			public := newRoundStats()
			inst.round(public, 0)
			again := newRoundStats()
			inst.round(again, 1)
			for _, rs := range []*roundStats{public, again} {
				if rs.Failed > 0 || rs.ops == 0 {
					t.Fatalf("public round: %d ops, %d failed: %v", rs.ops, rs.Failed, rs.errs)
				}
			}
			if public.digest.sum() != again.digest.sum() {
				t.Fatal("the same inputs gave different results in two rounds")
			}

			ls := newLayerStats(false)
			ls.beginRound()
			inst.traced(ls)
			if ls.Failed > 0 {
				t.Fatalf("traced round failed: %v", ls.errs)
			}
			if got, want := ls.roundPlain.sum(), public.digest.sum(); got != want {
				t.Errorf("engine-level plain digest %#x, public API %#x", got, want)
			}
			if got, want := ls.roundTraced.sum(), public.digest.sum(); got != want {
				t.Errorf("traced digest %#x, public API %#x", got, want)
			}
			if len(ls.record) == 0 {
				t.Error("no run was recorded and replayed")
			}
			// Attribution closure: the layers' self times, a round counted
			// once however many shards ran in it, add up to the traced wall.
			if d := math.Abs(1 - float64(ls.closure)/float64(ls.rootWall)); d > 0.05 {
				t.Errorf("self times sum to %v, traced wall %v", ls.closure, ls.rootWall)
			}
			m := ls.metrics()
			for _, d := range perLayer {
				if v := m[d.name].Value; math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s = %v", d.name, v)
				}
			}
			for _, name := range []string{"engine.state_ms", "sched.schedule_ms", "engine.drive_ms", "trace.audit_ms"} {
				if m[name].Value <= 0 {
					t.Errorf("%s = %v, want a positive time", name, m[name].Value)
				}
			}
		})
	}
}

func TestTimedSchedulerKeepsBoundsPublisher(t *testing.T) {
	tr := newOpTrace()
	sibs := &sched.SIBS{}
	wrapped, ok := timed(sibs, tr).(sched.BoundsPublisher)
	if !ok {
		t.Fatal("wrapping SIBS hid sched.BoundsPublisher")
	}
	if _, ok := timed(sched.Greedy{}, tr).(sched.BoundsPublisher); ok {
		t.Fatal("wrapping Greedy invented sched.BoundsPublisher")
	}
	if got := timed(sched.OrderPreserving{}, tr).Name(); got != "Op" {
		t.Errorf("wrapped name %q, want the inner scheduler's", got)
	}

	batch := []*job.Job{
		{ID: 0, ParentID: -1, InputSize: 5 << 20, OutputSize: 2 << 20, Features: job.Features{SizeMB: 5}},
		{ID: 1, ParentID: -1, InputSize: 90 << 20, OutputSize: 40 << 20, Features: job.Features{SizeMB: 90}},
		{ID: 2, ParentID: -1, InputSize: 250 << 20, OutputSize: 90 << 20, Features: job.Features{SizeMB: 250}},
	}
	st := &sched.State{
		ICMachines: 8, ICSpeed: 1, ICBacklogStd: 1e5, ECMachines: 2, ECSpeed: 1, UploadChannels: 1,
		PredictUploadBW:   func(float64) float64 { return 600 << 10 },
		PredictDownloadBW: func(float64) float64 { return 900 << 10 },
		EstimateProc:      func(f job.Features) float64 { return 10 * f.SizeMB },
	}
	wrapped.Schedule(batch, st, job.NewCounter(3))
	gs, gm, gok := wrapped.Bounds()
	ws, wm, wok := sibs.Bounds()
	if !wok || gs != ws || gm != wm || gok != wok {
		t.Fatalf("wrapper bounds (%d, %d, %v), SIBS bounds (%d, %d, %v)", gs, gm, gok, ws, wm, wok)
	}
	if len(tr.marks) != 1 || tr.marks[0].estCalls == 0 || tr.marks[0].predCalls == 0 {
		t.Fatalf("Schedule call not recorded with its estimator calls: %+v", tr.marks)
	}
}

// TestSpanTree builds the spans of a hand-made sharded batch: one round
// that loses a commit, and a retry round where two shards overlap.
func TestSpanTree(t *testing.T) {
	tr := &opTrace{
		entered: 5, returned: 100, lastDelivered: 80,
		bench: []span{{Name: spanConfig, Start: 1, End: 4}, {Name: spanGenerate, Start: 6, End: 8}},
		marks: []mark{
			{kind: markArrive, at: 10},
			{kind: markSched, start: 20, at: 30, est: 3, pred: 2},
			{kind: markCommit, at: 40, conflict: true},
			{kind: markSched, start: 50, at: 60},
			{kind: markSched, start: 52, at: 65},
			{kind: markCommit, at: 70},
		},
	}
	spans := tr.build()
	self := selfTimes(spans)
	want := map[string]time.Duration{
		spanOp:       2, // [0,1) and [4,5) are bench glue
		spanConfig:   3,
		spanRun:      10, // [70,80) between the last commit and the last delivery
		spanSetup:    3,  // [5,10) minus the nested NextBatch
		spanGenerate: 2,
		spanState:    20, // [10,20) and [40,50)
		spanRound:    0,
		spanSchedule: 10 - 5 + 10 + 13,
		spanCommit:   15, // [30,40) and [65,70)
		spanFinish:   20,
	}
	got := map[string]time.Duration{}
	for i, s := range spans {
		got[s.Name] += self[i]
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s self %v, want %v", name, got[name], w)
		}
	}
	ls := newLayerStats(false)
	ls.addRun(tr, 0, &engine.Result{})
	if ls.closure != 100 || ls.rootWall != 100 {
		t.Errorf("closure %v of wall %v, want 100 of 100", ls.closure, ls.rootWall)
	}
	if ls.rounds != 2 || ls.schedCalls != 3 || ls.roundCap != 10+2*15 || ls.schedWall != 33 {
		t.Errorf("rounds %d, calls %d, capacity %v, sched wall %v", ls.rounds, ls.schedCalls, ls.roundCap, ls.schedWall)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q3 := quartiles([]float64{2, 1}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of two values %v, %v; want 0.75, 2.25", q1, q3)
	}
	if got := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); got != 1 {
		t.Errorf("spread %v, want 1", got)
	}
}

func TestJudge(t *testing.T) {
	lower := bound{Name: "op_ms_p50", Better: "lower", Bound: 0.1}
	higher := bound{Name: "throughput", Better: "higher", Bound: 0.1}
	steady := func(m float64) side { return side{median: m, samples: []float64{m * 0.99, m, m * 1.01}} }
	noisy := func(m float64) side { return side{median: m, samples: []float64{m * 0.7, m, m * 1.3}} }
	for _, c := range []struct {
		b          bound
		base, next side
		want       string
	}{
		{lower, steady(10), steady(10.5), "no worse"},
		{lower, steady(10), steady(12), "regressed"},
		{lower, steady(10), steady(8), "better"},
		{higher, steady(100), steady(80), "regressed"},
		{higher, steady(100), steady(120), "better"},
		{lower, steady(10), noisy(12), "unresolved"},
		{lower, noisy(10), side{median: 1, samples: []float64{1, 1}}, "better"},
		{lower, steady(10), side{}, "missing"},
	} {
		if _, got := judge(c.base, c.next, c.b); got != c.want {
			t.Errorf("%s %v → %v: %s, want %s", c.b.Name, c.base.samples, c.next.samples, got, c.want)
		}
	}
}

// TestDefinitionMatchesCode keeps BENCHMARK.json and the metric tables the
// command prints in step.
func TestDefinitionMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	var e2e, layers, names []string
	for _, m := range def.EndToEnd {
		e2e = append(e2e, m.Name+" "+m.Unit)
	}
	for _, m := range def.PerLayer {
		layers = append(layers, m.Name+" "+m.Unit)
	}
	for _, w := range def.Workloads {
		names = append(names, w.Name)
	}
	var codeE2E, codeLayers, codeNames []string
	for _, d := range endToEnd {
		codeE2E = append(codeE2E, d.name+" "+d.unit)
	}
	for _, d := range perLayer {
		codeLayers = append(codeLayers, d.name+" "+d.unit)
	}
	for _, w := range workloads {
		codeNames = append(codeNames, w.name)
	}
	for _, c := range []struct {
		what       string
		json, code []string
	}{
		{"end_to_end", e2e, codeE2E},
		{"per_layer", layers, codeLayers},
		{"workloads", names, codeNames},
	} {
		if strings.Join(c.json, ",") != strings.Join(c.code, ",") {
			t.Errorf("%s: BENCHMARK.json has %v, the command %v", c.what, c.json, c.code)
		}
	}
}

// TestResultLine runs the command on one workload and checks the shape of
// its last output line.
func TestResultLine(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"--workload", "sharded-burst", "--seed", "2", "--seconds", "0.001", "--trace", "0"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatal(err)
	}
	var metrics map[string]lineMetric
	if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(line) != 4 || string(line["correct"]) != "true" || len(metrics) != len(endToEnd) {
		t.Fatalf("result line %s", lines[len(lines)-1])
	}
	for _, d := range endToEnd {
		if m := metrics[d.name]; m.Unit != d.unit || !(m.Value > 0) {
			t.Errorf("%s = %+v", d.name, m)
		}
	}
	if code := run([]string{"-trace", "2"}, &out, &errOut); code == 0 {
		t.Error("-trace 2 accepted")
	}
}
