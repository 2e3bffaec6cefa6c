// Command bench is the repository benchmark. It drives the cloudburst
// simulator through four workloads, prints every end-to-end metric by name
// with its unit, checks that the outputs are correct, and with -trace 1
// attributes each op's wall time to the layers it passes through.
//
// Build and run it from the repository root:
//
//	bash bench/run.sh -seed 1                          # all four workloads
//	bash bench/run.sh -workload serve-diurnal -seed 3 -trace 1
//	bash bench/run.sh -compare 'base-*.json' 'new-*.json'
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. README.md describes the
// workloads, the metrics and their bounds.
package main

import (
	"bufio"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type metricDef struct{ name, unit string }

// endToEnd lists the end-to-end metrics every workload reports with
// -trace 0, in BENCHMARK.json order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput", "1/s"},
	{"op_ms_p50", "ms"},
	{"op_ms_p95", "ms"},
	{"alloc_kb_per_op", "KiB"},
}

type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
	// Rounds holds the metric per round; their spread tells a real change
	// from noise.
	Rounds []float64 `json:"rounds,omitempty"`
}

// outcomes counts attempted and failed ops and keeps the first errors.
type outcomes struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	errs      []error
}

func (o *outcomes) attempt() { o.Attempted++ }

func (o *outcomes) fail(err error) {
	o.Failed++
	if len(o.errs) < 5 {
		o.errs = append(o.errs, err)
	}
}

func (o *outcomes) merge(p outcomes) {
	o.Attempted += p.Attempted
	o.Failed += p.Failed
	o.errs = append(o.errs, p.errs[:min(len(p.errs), 5-len(o.errs))]...)
}

// roundStats collects one round of untraced ops.
type roundStats struct {
	outcomes
	digest *digest
	ops    int           // ops measured
	busy   time.Duration // wall time inside measured ops
	items  float64       // work completed, in the workload's throughput item
	lat    []float64     // op latencies, ms
	extra  map[string][]float64
}

func newRoundStats() *roundStats {
	return &roundStats{digest: newDigest(), extra: map[string][]float64{}}
}

// op records one measured op that took d and completed items of work.
func (rs *roundStats) op(d time.Duration, items float64, err error) bool {
	rs.attempt()
	if err != nil {
		rs.fail(err)
		return false
	}
	rs.ops++
	rs.busy += d
	rs.items += items
	rs.lat = append(rs.lat, ms(d))
	return true
}

func (rs *roundStats) sample(name string, v float64) { rs.extra[name] = append(rs.extra[name], v) }

func (rs *roundStats) absorb(r *roundStats) {
	rs.merge(r.outcomes)
	rs.ops += r.ops
	rs.lat = append(rs.lat, r.lat...)
	for k, v := range r.extra {
		rs.extra[k] = append(rs.extra[k], v...)
	}
}

type options struct {
	seed       int64
	seconds    time.Duration
	trace      bool
	cpuprofile string
	keepSpans  bool
}

type workloadResult struct {
	Name string `json:"name"`
	outcomes
	Digest  string                 `json:"digest"`
	Metrics map[string]metricValue `json:"metrics"`
	Details map[string]metricValue `json:"details,omitempty"`
	spans   []span
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run only this workload (default: all four)")
	seed := fs.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 25, "measured time per workload, in seconds")
	traced := fs.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics")
	jsonOut := fs.String("json", "", "also write the full results to this file")
	spansOut := fs.String("spans", "", "with -trace 1, write the first traced round's spans to this JSONL file")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of each workload's measured loop to PREFIX-<workload>.pprof")
	compare := fs.Bool("compare", false, "compare result files: -compare BASE NEW, each a file or a glob")
	definition := fs.String("benchmark", "BENCHMARK.json", "benchmark definition holding the bounds for -compare")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare wants two arguments, BASE and NEW")
			return 2
		}
		return compareMain(*definition, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	switch {
	case fs.NArg() > 0:
		fmt.Fprintf(stderr, "bench: unexpected arguments %q\n", fs.Args())
		return 2
	case *traced != 0 && *traced != 1:
		fmt.Fprintf(stderr, "bench: -trace %d: want 0 or 1\n", *traced)
		return 2
	case !(*seconds > 0):
		fmt.Fprintf(stderr, "bench: -seconds %g: want a positive time\n", *seconds)
		return 2
	}
	selected := workloads
	if *name != "" {
		i := slices.IndexFunc(workloads, func(w benchWorkload) bool { return w.name == *name })
		if i < 0 {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		selected = workloads[i : i+1]
	}
	o := options{
		seed:       *seed,
		seconds:    time.Duration(*seconds * float64(time.Second)),
		trace:      *traced == 1,
		cpuprofile: *cpuprofile,
		keepSpans:  *spansOut != "",
	}
	fmt.Fprintf(stdout, "# bench %s %s/%s GOMAXPROCS=%d seed=%d seconds=%g trace=%d\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.GOMAXPROCS(0), o.seed, *seconds, *traced)

	var results []*workloadResult
	for _, w := range selected {
		var res *workloadResult
		if o.trace {
			res = measureTraced(w, o)
		} else {
			res = measure(w, o)
		}
		printResult(stdout, stderr, w, res, o.trace)
		results = append(results, res)
	}

	status := 0
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, o, results); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			status = 1
		}
	}
	if *spansOut != "" {
		if err := writeSpans(*spansOut, results); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			status = 1
		}
	}
	last := summary(results, o.trace)
	line, err := json.Marshal(last)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if last.Failed > 0 {
		status = 1
	}
	return status
}

// measure runs rounds of the workload through the public API until the
// measured time has passed. Each round sets the workload up afresh, so the
// set-up samples spread over the whole run like the op samples do.
func measure(w benchWorkload, o options) *workloadResult {
	res := &workloadResult{Name: w.name}
	stop := startProfile(o.cpuprofile, w.name, res)
	var inst instance
	var setups []float64
	all := newRoundStats()
	per := map[string][]float64{}
	var allocated uint64
	refs := make([]uint64, w.inputs)
	deadline := time.Now().Add(o.seconds)
	for r := 0; r == 0 || time.Now().Before(deadline); r++ {
		// A set-up starts from a collected heap, so a collection the round
		// before left pending does not land in its time.
		runtime.GC()
		start := time.Now()
		inst = w.new(o.seed)
		err := inst.warmUp()
		setups = append(setups, time.Since(start).Seconds())
		res.attempt()
		if err != nil {
			res.fail(fmt.Errorf("warm-up: %w", err))
			break
		}

		rs := newRoundStats()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		inst.round(rs, r)
		runtime.ReadMemStats(&after)
		if d, k := rs.digest.sum(), r%w.inputs; r < w.inputs {
			refs[k] = d
		} else if d != refs[k] {
			rs.fail(fmt.Errorf("round %d digest %#x differs from round %d %#x", r, d, k, refs[k]))
		}
		alloc := after.TotalAlloc - before.TotalAlloc
		allocated += alloc
		per["throughput"] = append(per["throughput"], rs.items/rs.busy.Seconds())
		per["op_ms_p50"] = append(per["op_ms_p50"], percentile(rs.lat, 0.50))
		per["op_ms_p95"] = append(per["op_ms_p95"], percentile(rs.lat, 0.95))
		per["alloc_kb_per_op"] = append(per["alloc_kb_per_op"], float64(alloc)/1024/float64(rs.ops))
		all.absorb(rs)
	}
	stop()
	res.merge(all.outcomes)
	res.Metrics = map[string]metricValue{
		"setup_s":         {Value: median(setups), Unit: "s", Samples: len(setups), Rounds: setups},
		"throughput":      {Value: median(per["throughput"]), Unit: "1/s", Samples: all.ops, Rounds: per["throughput"]},
		"op_ms_p50":       {Value: percentile(all.lat, 0.50), Unit: "ms", Samples: len(all.lat), Rounds: per["op_ms_p50"]},
		"op_ms_p95":       {Value: percentile(all.lat, 0.95), Unit: "ms", Samples: len(all.lat), Rounds: per["op_ms_p95"]},
		"alloc_kb_per_op": {Value: float64(allocated) / 1024 / float64(all.ops), Unit: "KiB", Samples: all.ops, Rounds: per["alloc_kb_per_op"]},
	}
	res.Details = inst.details(all)
	res.dropNonFinite()
	checkDigest(res, w.name, o.seed, refs[0])
	return res
}

// measureTraced sets the workload up once, runs one untraced round through
// the public API for the reference digest, then runs traced rounds until
// the measured time has passed.
func measureTraced(w benchWorkload, o options) *workloadResult {
	res := &workloadResult{Name: w.name}
	inst := w.new(o.seed)
	res.attempt()
	if err := inst.warmUp(); err != nil {
		res.fail(fmt.Errorf("warm-up: %w", err))
		return res
	}
	public := newRoundStats()
	inst.round(public, 0)
	res.merge(public.outcomes)
	ref := public.digest.sum()
	checkDigest(res, w.name, o.seed, ref)

	stop := startProfile(o.cpuprofile, w.name, res)
	ls := newLayerStats(o.keepSpans)
	deadline := time.Now().Add(o.seconds)
	for r := 0; r == 0 || time.Now().Before(deadline); r++ {
		ls.beginRound()
		inst.traced(ls)
		ls.keepSpans = false
		if d := ls.roundPlain.sum(); d != ref {
			ls.fail(fmt.Errorf("round %d: engine-level plain digest %#x, public API %#x", r, d, ref))
		}
		if d := ls.roundTraced.sum(); d != ref {
			ls.fail(fmt.Errorf("round %d: traced digest %#x, public API %#x", r, d, ref))
		}
	}
	stop()
	res.merge(ls.outcomes)
	res.Metrics = ls.metrics()
	res.dropNonFinite()
	res.spans = ls.spans
	return res
}

// dropNonFinite zeroes values a workload whose every op failed cannot
// have, such as a median of no samples; JSON has no NaN.
func (res *workloadResult) dropNonFinite() {
	for _, m := range []map[string]metricValue{res.Metrics, res.Details} {
		for k, v := range m {
			if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				v.Value = 0
				m[k] = v
			}
		}
	}
}

//go:embed digests.json
var digestsJSON []byte

// checkDigest records the result digest and compares it with the one
// pinned for this workload and seed. Digests hash float bits, so they are
// pinned for linux/amd64 only.
func checkDigest(res *workloadResult, name string, seed int64, got uint64) {
	res.Digest = fmt.Sprintf("%#016x", got)
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		return
	}
	var pinned map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &pinned); err != nil {
		res.fail(fmt.Errorf("digests.json: %w", err))
		return
	}
	s, ok := pinned[name][strconv.FormatInt(seed, 10)]
	if !ok {
		return
	}
	res.attempt()
	if want, err := strconv.ParseUint(s, 0, 64); err != nil || want != got {
		res.fail(fmt.Errorf("result digest %s, pinned for seed %d: %s", res.Digest, seed, s))
	}
}

func startProfile(prefix, name string, res *workloadResult) (stop func()) {
	if prefix == "" {
		return func() {}
	}
	f, err := os.Create(prefix + "-" + name + ".pprof")
	if err == nil {
		if err = pprof.StartCPUProfile(f); err != nil {
			f.Close()
		}
	}
	if err != nil {
		res.fail(fmt.Errorf("cpu profile: %w", err))
		return func() {}
	}
	return func() {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			res.fail(fmt.Errorf("cpu profile: %w", err))
		}
	}
}

func printResult(stdout, stderr io.Writer, w benchWorkload, res *workloadResult, traced bool) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok {
			continue
		}
		note := ""
		if m.Samples > 0 {
			note = fmt.Sprintf("n=%d", m.Samples)
		}
		if len(m.Rounds) > 1 {
			note += fmt.Sprintf(" over %d, spread %.1f%%", len(m.Rounds), 100*spread(m.Rounds))
		}
		if d.name == "throughput" {
			note += " (" + w.item + "/s)"
		}
		fmt.Fprintf(stdout, "%-18s %-22s %14.6g %-6s %s\n", res.Name, d.name, m.Value, d.unit, note)
	}
	names := make([]string, 0, len(res.Details))
	for n := range res.Details {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		m := res.Details[n]
		fmt.Fprintf(stdout, "%-18s %-22s %14.6g %-6s unbounded\n", res.Name, n, m.Value, m.Unit)
	}
	fmt.Fprintf(stdout, "%-18s digest %s, %d attempted, %d failed\n", res.Name, res.Digest, res.Attempted, res.Failed)
	for _, err := range res.errs {
		fmt.Fprintf(stderr, "bench: %s: %v\n", res.Name, err)
	}
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary builds the result line. With one workload the metrics carry
// their own names; with several, each is prefixed by its workload.
func summary(results []*workloadResult, traced bool) resultLine {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	line := resultLine{Metrics: map[string]lineMetric{}}
	for _, res := range results {
		line.Attempted += res.Attempted
		line.Failed += res.Failed
		for _, d := range defs {
			key := d.name
			if len(results) > 1 {
				key = res.Name + "/" + d.name
			}
			line.Metrics[key] = lineMetric{Value: res.Metrics[d.name].Value, Unit: d.unit}
		}
	}
	line.Attempted = max(line.Attempted, 1)
	line.Correct = line.Failed == 0
	return line
}

// resultFile is what -json writes and -compare reads.
type resultFile struct {
	Seed       int64             `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Trace      bool              `json:"trace"`
	Go         string            `json:"go"`
	Platform   string            `json:"platform"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Workloads  []*workloadResult `json:"workloads"`
}

func writeJSON(path string, o options, results []*workloadResult) error {
	data, err := json.MarshalIndent(resultFile{
		Seed:       o.seed,
		Seconds:    o.seconds.Seconds(),
		Trace:      o.trace,
		Go:         runtime.Version(),
		Platform:   runtime.GOOS + "/" + runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workloads:  results,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// writeSpans writes every kept span as one JSON object per line.
func writeSpans(path string, results []*workloadResult) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, res := range results {
		for _, s := range res.spans {
			if err := enc.Encode(struct {
				Workload string `json:"workload"`
				span
			}{res.Name, s}); err != nil {
				return err
			}
		}
	}
	return w.Flush()
}
