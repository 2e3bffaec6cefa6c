// Command sweep expands a parameter grid — schedulers × buckets × network
// profiles × fault sets × cost sets × replication seeds — and executes
// every cell concurrently, streaming per-cell results to JSONL/CSV and
// keeping a crash-safe resume manifest.
//
// Examples:
//
//	sweep -schedulers Greedy,Op,SIBS -buckets small,uniform,large -seeds 4
//	sweep -spec grid.json -out results.jsonl -csv results.csv
//	sweep -schedulers Op -profiles paper,highvar -seeds 8 -resume sweep.manifest
//	sweep -schedulers Op,SIBS -faults ec-revoke -seeds 4 -agg
//	sweep -schedulers Op -costs ondemand,budget -seeds 4 -pareto frontier.jsonl
//	sweep -search speedup-collapse -axis jitter -min 0.05 -max 3 -frontier frontier.jsonl
//
// With -search the command runs the adaptive frontier search instead of a
// grid: it bisects the chosen axis between -min and -max to localize where
// each named predicate first fails, hill-climbs replication seeds at the
// located frontier, and writes the frontier artifact as JSON lines. The
// grid flags still select the base configuration (the first cell of the
// grid the flags would have declared).
//
// Interrupting a sweep (Ctrl-C) leaves every completed cell in the resume
// manifest; re-running the identical invocation with the same -resume path
// re-executes only the incomplete cells and rewrites the output files in
// full.
//
// Related commands: cmd/cloudburst runs a single simulation (or, with
// -serve, the always-on streaming service mode with rolling-window metrics
// and checkpoint/restore); cmd/experiments regenerates the paper's figures
// and tables.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"

	"cloudburst"
	"cloudburst/internal/profile"
)

// The -profiles vocabulary is the library's preset registry: each name
// resolves through cloudburst.SweepProfileFor, so CLI profiles and
// library presets cannot drift apart. A spec file can still define
// arbitrary profiles.

// faultPresets are the named fault regimes selectable from the command line.
var faultPresets = map[string]cloudburst.SweepFaultSet{
	"none":      {Name: "none"},
	"ec-revoke": {Name: "ec-revoke", ECRevocationMTBF: 400, ECRevocationWarning: 30},
	"ic-crash":  {Name: "ic-crash", ICCrashMTBF: 600, ICCrashMTTR: 300},
	"stall":     {Name: "stall", TransferStallMTBF: 1200, TransferStallTimeout: 90},
}

// costPresets are the named pricing regimes selectable from the command
// line. The budget preset prices on-demand hours but caps committed burst
// spend, exercising the admission gate; spot prices apply only under
// EC-revocation faults.
var costPresets = map[string]cloudburst.SweepCostSet{
	"free":     {Name: "free"},
	"ondemand": {Name: "ondemand", OnDemandRate: 0.10},
	"spot":     {Name: "spot", OnDemandRate: 0.10, SpotRate: 0.03},
	"budget":   {Name: "budget", OnDemandRate: 0.10, Budget: 0.25},
}

func main() {
	var (
		specPath = flag.String("spec", "", "JSON grid specification file (grid flags are ignored when set)")

		schedulers = flag.String("schedulers", "Op", "comma-separated schedulers: ICOnly, Greedy, GreedyTracking, Op, SIBS")
		buckets    = flag.String("buckets", "uniform", "comma-separated buckets: small, uniform, large")
		seeds      = flag.Int("seeds", 1, "number of replication seeds")
		seedBase   = flag.Int64("seed-base", 1, "first replication seed")
		profiles   = flag.String("profiles", "paper", "comma-separated network profiles: "+strings.Join(cloudburst.Presets(), ", "))
		faults     = flag.String("faults", "none", "comma-separated fault sets: none, ec-revoke, ic-crash, stall")
		costs      = flag.String("costs", "free", "comma-separated cost sets: free, ondemand, spot, budget")
		batches    = flag.Int("batches", 0, "arrival batches per run (0 = paper default 6)")
		jobs       = flag.Float64("jobs", 0, "mean jobs per batch (0 = paper default 15)")
		icM        = flag.Int("ic", 0, "IC machines (0 = paper default 8)")
		ecM        = flag.Int("ec", 0, "EC machines (0 = paper default 2)")
		margin     = flag.Float64("margin", 0, "slack safety margin tau (seconds)")
		resched    = flag.Bool("resched", false, "enable rescheduling strategies (Sec. IV-D)")
		shards     = flag.String("shards", "", "comma-separated shard counts for the sharded-scheduling axis, e.g. 1,4,8 (empty = monolithic)")

		searchPreds = flag.String("search", "", "run a frontier search instead of a grid sweep: comma-separated predicates ("+strings.Join(cloudburst.SearchPredicates(), ", ")+"), or 'all'")
		axis        = flag.String("axis", "jitter", "search axis: "+strings.Join(cloudburst.SearchAxes(), ", "))
		axisMin     = flag.Float64("min", 0, "search bracket lower endpoint (must be positive)")
		axisMax     = flag.Float64("max", 0, "search bracket upper endpoint")
		axisTol     = flag.Float64("tol", 0, "bracket width that counts as localized (0 = 1/64 of the bracket)")
		climb       = flag.Int("climb", 0, "worst-seed hill-climb candidates per frontier (0 = default 4, negative = off)")
		maxProbes   = flag.Int("max-probes", 0, "bisection probe budget per predicate (0 = default 64)")
		frontier    = flag.String("frontier", "", "write the frontier rows to this file as JSON lines")

		out      = flag.String("out", "", "stream per-cell results to this file as JSON lines")
		csvOut   = flag.String("csv", "", "stream per-cell results to this file as CSV")
		resume   = flag.String("resume", "", "crash-safe manifest path: completed cells are journaled here and never re-run")
		workers  = flag.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
		pareto   = flag.String("pareto", "", "write the rental-cost-vs-makespan Pareto frontier to this file as JSON lines")
		agg      = flag.Bool("agg", false, "print a mean/stddev/min/max table grouped by scheduler/bucket")
		quiet    = flag.Bool("q", false, "suppress the progress line")
		printAll = flag.Bool("cells", false, "print each cell's headline metrics to stdout")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the whole command to this file (read with go tool pprof)")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file when the command finishes")
	)
	flag.Parse()
	stopProfiles, perr := profile.Start(*cpuProfile, *memProfile)
	if perr != nil {
		fatal(perr)
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fatal(err)
		}
	}()

	spec, err := buildSpec(*specPath, specFlags{
		schedulers: *schedulers, buckets: *buckets,
		seeds: *seeds, seedBase: *seedBase,
		profiles: *profiles, faults: *faults, costs: *costs,
		batches: *batches, jobs: *jobs, icM: *icM, ecM: *ecM,
		margin: *margin, resched: *resched, shards: *shards,
	})
	if err != nil {
		fatal(err)
	}

	if *searchPreds != "" {
		runSearch(spec, searchFlags{
			predicates: *searchPreds, axis: *axis,
			min: *axisMin, max: *axisMax, tol: *axisTol,
			seed: *seedBase, climb: *climb, maxProbes: *maxProbes,
			frontier: *frontier, resume: *resume, quiet: *quiet,
		})
		return
	}

	cfg := cloudburst.SweepConfig{Workers: *workers, ManifestPath: *resume}
	var closers []func() error
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		closers = append(closers, f.Close)
		cfg.JSONL = f
	}
	if *csvOut != "" {
		f, err := os.Create(*csvOut)
		if err != nil {
			fatal(err)
		}
		closers = append(closers, f.Close)
		cfg.CSV = f
	}
	if !*quiet {
		cfg.Progress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "\rsweep: %d/%d cells", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	results, err := cloudburst.SweepContext(ctx, *spec, cfg)
	for _, c := range closers {
		c()
	}
	if err != nil {
		if !*quiet {
			fmt.Fprintln(os.Stderr)
		}
		fatal(err)
	}

	if *pareto != "" {
		if err := writePareto(*pareto, cloudburst.SweepParetoFront(results)); err != nil {
			fatal(err)
		}
	}

	if *printAll {
		for _, r := range results {
			c, m := r.Cell, r.Metrics
			fmt.Printf("%4d  %-14s %-8s %-8s %-10s %-8s seed %-4d  makespan %7.0fs  speedup %5.2f  burst %5.2f  [%s]\n",
				c.Index, c.Scheduler, c.Bucket, c.Profile, c.Fault, c.Cost, c.Seed,
				m.Makespan, m.Speedup, m.BurstRatio, r.Origin)
		}
	}
	if *agg || (!*printAll && *out == "" && *csvOut == "") {
		printAggregate(results)
	}
}

// specFlags carries the grid flags into buildSpec.
type specFlags struct {
	schedulers, buckets, profiles, faults, costs string
	shards                                       string
	seeds                                        int
	seedBase                                     int64
	batches                                      int
	jobs, margin                                 float64
	icM, ecM                                     int
	resched                                      bool
}

// buildSpec loads the spec file, or assembles a spec from the grid flags.
func buildSpec(path string, f specFlags) (*cloudburst.SweepSpec, error) {
	if path != "" {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		return cloudburst.ParseSweepSpec(data)
	}
	spec := cloudburst.SweepSpec{
		Schedulers:       splitList(f.schedulers),
		Buckets:          splitList(f.buckets),
		SeedCount:        f.seeds,
		BaseSeed:         f.seedBase,
		Batches:          f.batches,
		MeanJobsPerBatch: f.jobs,
		ICMachines:       f.icM,
		ECMachines:       f.ecM,
		SlackMarginSec:   f.margin,
		Rescheduling:     f.resched,
	}
	for _, name := range splitList(f.profiles) {
		p, err := cloudburst.SweepProfileFor(name)
		if err != nil {
			return nil, fmt.Errorf("unknown profile %q (want %s)", name, strings.Join(cloudburst.Presets(), ", "))
		}
		spec.Profiles = append(spec.Profiles, p)
	}
	for _, name := range splitList(f.faults) {
		fs, ok := faultPresets[name]
		if !ok {
			return nil, fmt.Errorf("unknown fault set %q (want %s)", name, strings.Join(presetNames(faultPresets), ", "))
		}
		spec.Faults = append(spec.Faults, fs)
	}
	for _, name := range splitList(f.costs) {
		cs, ok := costPresets[name]
		if !ok {
			return nil, fmt.Errorf("unknown cost set %q (want %s)", name, strings.Join(presetNames(costPresets), ", "))
		}
		spec.Costs = append(spec.Costs, cs)
	}
	for _, s := range splitList(f.shards) {
		n, err := strconv.Atoi(s)
		if err != nil {
			return nil, fmt.Errorf("bad -shards entry %q: want integers like 1,4,8", s)
		}
		spec.Shards = append(spec.Shards, n)
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &spec, nil
}

// searchFlags carries the frontier-search flags into runSearch.
type searchFlags struct {
	predicates, axis string
	min, max, tol    float64
	seed             int64
	climb, maxProbes int
	frontier, resume string
	quiet            bool
}

// runSearch executes the adaptive frontier search: the grid flags supply
// the base configuration (the first cell of the declared grid), the
// search flags the axis, bracket and predicate set.
func runSearch(spec *cloudburst.SweepSpec, f searchFlags) {
	cells := spec.Cells()
	if len(cells) == 0 {
		fatal(fmt.Errorf("sweep: the grid flags declare no base configuration"))
	}
	base, err := cloudburst.CellOptions(*spec, cells[0])
	if err != nil {
		fatal(err)
	}
	var preds []string
	if f.predicates != "all" {
		preds = splitList(f.predicates)
	}
	sspec := cloudburst.SearchSpec{
		Base:       base,
		Axis:       f.axis,
		Min:        f.min,
		Max:        f.max,
		Tolerance:  f.tol,
		Predicates: preds,
		Seed:       f.seed,
		ClimbSeeds: f.climb,
		MaxProbes:  f.maxProbes,
	}

	cfg := cloudburst.SearchConfig{ManifestPath: f.resume}
	totalProbes, totalCached := 0, 0
	cfg.Progress = func(probes, cached int) {
		totalProbes, totalCached = probes, cached
		if !f.quiet {
			fmt.Fprintf(os.Stderr, "\rsearch: %d probes (%d cached)", probes, cached)
		}
	}
	var closeFrontier func() error
	if f.frontier != "" {
		out, err := os.Create(f.frontier)
		if err != nil {
			fatal(err)
		}
		closeFrontier = out.Close
		cfg.JSONL = out
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	rows, err := cloudburst.SearchContext(ctx, sspec, cfg)
	if closeFrontier != nil {
		closeFrontier()
	}
	if !f.quiet && totalProbes > 0 {
		fmt.Fprintln(os.Stderr)
	}
	if err != nil {
		fatal(err)
	}

	fmt.Printf("probes: %d executed, %d cached\n", totalProbes-totalCached, totalCached)
	for _, r := range rows {
		if !r.Crossed {
			side := "neither end"
			if r.LoHolds {
				side = "both ends"
			}
			fmt.Printf("%-20s no crossing in %s [%g, %g] (holds at %s; %d probes)\n",
				r.Predicate, r.Axis, r.LoValue, r.HiValue, side, r.Probes)
			continue
		}
		fmt.Printf("%-20s crossing at %s ~ %g (bracket [%g, %g], %d probes)\n",
			r.Predicate, r.Axis, r.Crossing, r.LoValue, r.HiValue, r.Probes)
		if r.WorstSeed != 0 {
			fmt.Printf("%-20s   worst seed %d  margin %.4f  makespan %.0fs  speedup %.2f\n",
				"", r.WorstSeed, r.WorstMargin, r.WorstMetrics.Makespan, r.WorstMetrics.Speedup)
		}
	}
}

// writePareto emits the frontier as JSON lines, one point per line in
// ascending-cost order.
func writePareto(path string, front []cloudburst.SweepParetoPoint) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, p := range front {
		if err := enc.Encode(p); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func presetNames[T any](m map[string]T) []string {
	out := make([]string, 0, len(m))
	for name := range m {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// printAggregate renders the group-by table: one row per scheduler/bucket
// with mean ± stddev and [min, max] for the headline metrics.
func printAggregate(results []cloudburst.SweepResult) {
	groups := cloudburst.AggregateSweep(results, func(c cloudburst.SweepCell) string {
		return c.Scheduler + "/" + c.Bucket
	})
	fmt.Printf("%-24s %4s  %-22s %-14s %-14s %-14s\n",
		"group", "n", "makespan_s", "speedup", "burst_ratio", "ec_util")
	for _, g := range groups {
		mk := g.Metric("makespan")
		fmt.Printf("%-24s %4d  %8.0f ±%-6.0f%6s %6.2f ±%-5.2f %6.2f ±%-5.2f %6.2f ±%-5.2f\n",
			g.Key, g.N,
			mk.Mean, mk.Std, fmt.Sprintf("[%0.0f]", mk.Max-mk.Min),
			g.Metric("speedup").Mean, g.Metric("speedup").Std,
			g.Metric("burst_ratio").Mean, g.Metric("burst_ratio").Std,
			g.Metric("ec_util").Mean, g.Metric("ec_util").Std)
	}
}

func fatal(err error) {
	// Library errors already carry a package prefix; avoid doubling it.
	fmt.Fprintln(os.Stderr, "sweep:", strings.TrimPrefix(err.Error(), "sweep: "))
	os.Exit(1)
}
