// Command cloudburst runs one simulated cloud-bursting workload and prints
// the SLA report, optionally emitting the figure series as CSV. With -serve
// it instead runs the always-on streaming mode: open-ended diurnal (or
// flash-crowd) arrivals, rolling-window metrics on stdout, and optional
// checkpoint/restore across invocations.
//
// Examples:
//
//	cloudburst -scheduler Op -bucket large -jitter 0.5
//	cloudburst -preset highvar -compare
//	cloudburst -compare -bucket uniform
//	cloudburst -scheduler Greedy -csv oo > oo.csv
//	cloudburst -trace events.jsonl -chrome-trace timeline.json -audit
//	cloudburst -ec-revoke-mtbf 400 -ec-revoke-warn 30 -audit
//	cloudburst -ec-rate 0.10 -budget 0.50 -audit
//	cloudburst -advise sweep.manifest
//	cloudburst -serve -duration 2h -window 10m -verify
//	cloudburst -serve -arrivals flashcrowd -duration 1h
//	cloudburst -serve -duration 1h -checkpoint svc.cbcp
//	cloudburst -serve -duration 1h -restore svc.cbcp
//	cloudburst -serve -duration 24h -quiet -cpuprofile serve.pprof
//
// Related commands: cmd/experiments regenerates the paper's figures and
// tables; cmd/sweep runs sharded scenario sweeps with resume manifests.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"cloudburst"
	"cloudburst/internal/profile"
)

func main() {
	var (
		preset    = flag.String("preset", "", "start from a registered preset ("+strings.Join(cloudburst.Presets(), ", ")+"); explicit flags override its fields")
		scheduler = flag.String("scheduler", "Op", "scheduler: ICOnly, Greedy, GreedyTracking, Op, SIBS")
		bucket    = flag.String("bucket", "uniform", "workload bucket: small, uniform, large")
		batches   = flag.Int("batches", 6, "number of arrival batches")
		jobs      = flag.Float64("jobs", 15, "mean jobs per batch (Poisson)")
		seed      = flag.Int64("seed", 1, "workload seed")
		netSeed   = flag.Int64("netseed", 1, "network seed")
		jitter    = flag.Float64("jitter", 0.15, "bandwidth jitter CV (0.5 = high variation)")
		tol       = flag.Int("tol", 0, "out-of-order tolerance t_l (jobs)")
		margin    = flag.Float64("margin", 0, "slack safety margin tau (seconds)")
		resched   = flag.Bool("resched", false, "enable rescheduling strategies (Sec. IV-D)")
		shards    = flag.String("shards", "", "sharded scheduling spec N[:partition[:retries]], e.g. 4, 8:disjoint, 4:hash:3 (empty = monolithic)")
		compare   = flag.Bool("compare", false, "run ICOnly, Greedy, Op and SIBS on the same workload")
		csvOut    = flag.String("csv", "", "emit a series as CSV instead of the report: oo, completions, waits")
		autoscale = flag.Int("autoscale", 0, "autoscale the EC fleet up to N machines (0 = fixed fleet)")
		sites     = flag.Int("sites", 0, "extra external-cloud providers with independent pipes")
		outages   = flag.Float64("outage-mtbf", 0, "inject hard outages with this mean time between (seconds, 0 = off)")
		ticket    = flag.Float64("ticket", 0, "also report how a fixed completion promise of this many seconds fared")
		traceOut  = flag.String("trace", "", "stream the run's event trace to this file as JSON lines")
		chromeOut = flag.String("chrome-trace", "", "write the run's timeline to this file in Chrome trace-event format (open in chrome://tracing)")
		audit     = flag.Bool("audit", false, "fold the event stream through the independent SLA auditor and print its summary")
		verify    = flag.Bool("verify", false, "audit every event against the runtime invariant checker; fail on any violation (about 1.5x slower)")

		ecRate     = flag.Float64("ec-rate", 0, "on-demand EC rental rate ($ per machine-hour, 0 = pricing off)")
		ecSpotRate = flag.Float64("ec-spot-rate", 0, "spot EC rental rate under revocation faults ($ per machine-hour, 0 = on-demand rate)")
		budget     = flag.Float64("budget", 0, "burst budget: admission stops committing EC spend past this ($, 0 = unlimited)")
		billing    = flag.Float64("billing", 0, "billing interval rentals are rounded up to (seconds, 0 = default 3600)")
		advisePath = flag.String("advise", "", "read a sweep resume manifest and print burst/no-burst advice per scenario, then exit")

		ecRevokeMTBF = flag.Float64("ec-revoke-mtbf", 0, "revoke EC machines permanently with this mean time between (seconds, 0 = off)")
		ecRevokeWarn = flag.Float64("ec-revoke-warn", 0, "advance warning before each EC revocation (seconds)")
		icCrashMTBF  = flag.Float64("ic-crash-mtbf", 0, "crash IC machines with this mean time between (seconds, 0 = off)")
		icCrashMTTR  = flag.Float64("ic-crash-mttr", 0, "mean IC repair time (seconds, default 300)")
		stallMTBF    = flag.Float64("stall-mtbf", 0, "stall primary-link transfers with this mean time between (seconds, 0 = off)")
		stallTimeout = flag.Float64("stall-timeout", 0, "sender timeout aborting a stalled transfer (seconds, default 120)")
		retries      = flag.Int("retries", 0, "EC re-admissions per disturbed job before IC fallback (0 = default 2, negative = never retry)")
		faultSeed    = flag.Int64("fault-seed", 0, "seed of the dedicated fault RNG")

		serve          = flag.Bool("serve", false, "streaming service mode: open-ended arrivals with rolling-window metrics (ignores -batches)")
		duration       = flag.Duration("duration", 0, "with -serve: virtual serving time before draining (0 = until Ctrl-C or -max-jobs)")
		window         = flag.Duration("window", 10*time.Minute, "with -serve: rolling metric window length")
		arrivals       = flag.String("arrivals", "diurnal", "with -serve: arrival pattern: steady, diurnal, flashcrowd")
		maxJobs        = flag.Int("max-jobs", 0, "with -serve: stop feeding after this many jobs (0 = unbounded)")
		burstFactor    = flag.Float64("burst-factor", 0, "with -serve -arrivals flashcrowd: rate multiplier during bursts (0 = default 6)")
		checkpointPath = flag.String("checkpoint", "", "with -serve: suspend at -duration and write the checkpoint blob to this file")
		restorePath    = flag.String("restore", "", "with -serve: resume from a checkpoint blob; -duration adds serving time")
		quiet          = flag.Bool("quiet", false, "with -serve: suppress per-window lines, print only the final summary")

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

	if *advisePath != "" {
		runAdvise(*advisePath)
		return
	}

	switch *csvOut {
	case "", "oo", "completions", "waits":
	default:
		fatal(fmt.Errorf("unknown -csv series %q (want oo, completions, waits)", *csvOut))
	}

	opts := cloudburst.Options{
		Scheduler:        cloudburst.SchedulerName(*scheduler),
		Bucket:           cloudburst.BucketName(*bucket),
		Batches:          *batches,
		MeanJobsPerBatch: *jobs,
		WorkloadSeed:     *seed,
		NetSeed:          *netSeed,
		JitterCV:         *jitter,
		OOToleranceJobs:  *tol,
		SlackMarginSec:   *margin,
		Rescheduling:     *resched,
		AutoscaleECMax:   *autoscale,
		OutageMTBF:       *outages,
	}
	for i := 0; i < *sites; i++ {
		opts.ExtraECSites = append(opts.ExtraECSites, cloudburst.ECSiteSpec{})
	}
	// Arm on any non-zero value (not just positive) so that negative flags
	// reach the library's validation instead of being silently ignored.
	if *ecRevokeMTBF != 0 || *icCrashMTBF != 0 || *stallMTBF != 0 {
		opts.Faults = &cloudburst.FaultOptions{
			ECRevocationMTBF:     *ecRevokeMTBF,
			ECRevocationWarning:  *ecRevokeWarn,
			ICCrashMTBF:          *icCrashMTBF,
			ICCrashMTTR:          *icCrashMTTR,
			TransferStallMTBF:    *stallMTBF,
			TransferStallTimeout: *stallTimeout,
			MaxRetries:           *retries,
			Seed:                 *faultSeed,
		}
	}
	if *ecRate != 0 || *ecSpotRate != 0 || *budget != 0 || *billing != 0 {
		opts.Cost = &cloudburst.CostOptions{
			OnDemandRate:       *ecRate,
			SpotRate:           *ecSpotRate,
			BillingIntervalSec: *billing,
			Budget:             *budget,
		}
	}
	if *shards != "" {
		so, err := cloudburst.ParseShardSpec(*shards)
		if err != nil {
			fatal(err)
		}
		opts.Shards = so
	}
	if *preset != "" {
		opts = applyPreset(*preset, opts)
	}

	opts.Verify = *verify

	if *serve {
		if *compare || *csvOut != "" || *audit || *chromeOut != "" {
			fatal(fmt.Errorf("-serve streams windows continuously; drop -compare, -csv, -audit and -chrome-trace"))
		}
		var jsonl *cloudburst.JSONLTracer
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			if err != nil {
				fatal(err)
			}
			jsonl = cloudburst.NewJSONLTracer(f)
			opts.Trace = jsonl
		}
		runServe(opts, serveFlags{
			duration:       *duration,
			window:         *window,
			arrivals:       *arrivals,
			maxJobs:        *maxJobs,
			burstFactor:    *burstFactor,
			checkpointPath: *checkpointPath,
			restorePath:    *restorePath,
			quiet:          *quiet,
		})
		if jsonl != nil {
			if err := jsonl.Close(); err != nil {
				fatal(err)
			}
		}
		return
	}

	if *compare {
		if *traceOut != "" || *chromeOut != "" || *audit {
			fatal(fmt.Errorf("-trace, -chrome-trace and -audit trace a single run; drop -compare"))
		}
		reports, err := cloudburst.Compare(opts)
		if err != nil {
			fatal(err)
		}
		base := reports[0]
		fmt.Printf("%-8s %10s %8s %7s %8s %8s %8s %8s\n",
			"sched", "makespan_s", "speedup", "burst", "IC-util", "EC-util", "stalls", "valleys")
		for _, r := range reports {
			fmt.Printf("%-8s %10.0f %8.2f %7.2f %7.1f%% %7.1f%% %8d %8d\n",
				r.Scheduler, r.Makespan, r.Speedup, r.BurstRatio,
				100*r.ICUtil, 100*r.ECUtil, r.PeakCount, r.ValleyCount)
		}
		fmt.Printf("\nbursting vs IC-only makespan: ")
		for _, r := range reports[1:] {
			fmt.Printf("%s %+.1f%%  ", r.Scheduler, 100*(r.Makespan-base.Makespan)/base.Makespan)
		}
		fmt.Println()
		return
	}

	var jsonl *cloudburst.JSONLTracer
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		jsonl = cloudburst.NewJSONLTracer(f)
		opts.Trace = jsonl
	}
	// The Chrome exporter renders the whole stream, so it needs the run
	// recorded; the auditor folds the stream live.
	var rec *cloudburst.TraceRecorder
	if *chromeOut != "" {
		rec = cloudburst.NewTraceRecorder()
		opts.Trace = cloudburst.MultiTracer(opts.Trace, rec)
	}
	opts.Audit = *audit

	report, err := cloudburst.Run(opts)
	if jsonl != nil {
		if cerr := jsonl.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if err != nil {
		fatal(err)
	}
	if *chromeOut != "" {
		if err := writeChromeTrace(*chromeOut, rec.Events()); err != nil {
			fatal(err)
		}
	}

	switch *csvOut {
	case "":
		fmt.Print(report)
		if *ticket > 0 {
			rep := report.FixedTickets(*ticket)
			fmt.Printf("  tickets    %d/%d kept at %.0fs promise (mean lateness %.0fs, worst %.0fs)\n",
				rep.Kept, rep.Jobs, *ticket, rep.MeanLateness, rep.WorstLateness)
		}
		if report.ECMachineSeconds > 0 && *autoscale > 0 {
			fmt.Printf("  elastic EC %.1f machine-hours rented, peak %d machines\n",
				report.ECMachineSeconds/3600, report.ECPeakMachines)
		}
	case "oo":
		fmt.Print(cloudburst.SeriesCSV("ordered_bytes", report.OOSeries()))
	case "completions":
		fmt.Print(cloudburst.SeriesCSV("completed_at", report.CompletionSeries()))
	case "waits":
		fmt.Print(cloudburst.SeriesCSV("inorder_wait", report.InOrderWaitSeries()))
	}

	if *audit {
		a, err := report.Audit()
		if err != nil {
			fatal(err)
		}
		fmt.Println()
		fmt.Print(a.Summary())
		if !a.OK() {
			fatal(fmt.Errorf("audit found %d integrity issue(s)", len(a.Issues)))
		}
	}
}

// applyPreset starts from the named registry preset and overlays every
// flag the user set explicitly, so "-preset highvar -jitter 0.3" means the
// highvar regime with jitter lowered to 0.3. Fault, cost and site flags
// carry over unconditionally — no preset arms them.
func applyPreset(name string, flagOpts cloudburst.Options) cloudburst.Options {
	opts, err := cloudburst.Preset(name)
	if err != nil {
		fatal(err)
	}
	set := make(map[string]bool)
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if set["scheduler"] {
		opts.Scheduler = flagOpts.Scheduler
	}
	if set["bucket"] {
		opts.Bucket = flagOpts.Bucket
	}
	if set["batches"] {
		opts.Batches = flagOpts.Batches
	}
	if set["jobs"] {
		opts.MeanJobsPerBatch = flagOpts.MeanJobsPerBatch
	}
	if set["seed"] {
		opts.WorkloadSeed = flagOpts.WorkloadSeed
	}
	if set["netseed"] {
		opts.NetSeed = flagOpts.NetSeed
	}
	if set["jitter"] {
		opts.JitterCV = flagOpts.JitterCV
	}
	if set["tol"] {
		opts.OOToleranceJobs = flagOpts.OOToleranceJobs
	}
	if set["margin"] {
		opts.SlackMarginSec = flagOpts.SlackMarginSec
	}
	if set["resched"] {
		opts.Rescheduling = flagOpts.Rescheduling
	}
	if set["autoscale"] {
		opts.AutoscaleECMax = flagOpts.AutoscaleECMax
	}
	if set["outage-mtbf"] {
		opts.OutageMTBF = flagOpts.OutageMTBF
	}
	opts.ExtraECSites = flagOpts.ExtraECSites
	opts.Faults = flagOpts.Faults
	opts.Cost = flagOpts.Cost
	return opts
}

// runAdvise prints the burst advisor's per-scenario recommendations from a
// sweep resume manifest.
func runAdvise(path string) {
	advice, err := cloudburst.Advise(path)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%d scenario(s) compared from %s\n", len(advice), path)
	sawEstimated := false
	for _, a := range advice {
		fmt.Printf("\nscenario %s\n", a.Scenario)
		base := "baseline"
		if a.Estimated {
			base, sawEstimated = "baseline*", true
		}
		fmt.Printf("  %-9s %-14s makespan %8.0fs\n", base, a.Baseline.Sched, a.Baseline.Metrics.Makespan)
		fmt.Printf("  %-9s %-14s makespan %8.0fs", "best", a.Best.Sched, a.Best.Metrics.Makespan)
		if a.SecondsSaved > 0 {
			if a.Estimated {
				fmt.Printf("  saves ~%.0fs (estimated)", a.SecondsSaved)
			} else {
				fmt.Printf("  saves %.0fs", a.SecondsSaved)
			}
		}
		fmt.Println()
		if a.Best.Metrics.CostRental > 0 {
			fmt.Printf("  rental $%.4f", a.Best.Metrics.CostRental)
			if a.CostPerHourSaved > 0 {
				if a.Estimated {
					fmt.Printf(" (~$%.2f per hour saved, estimated)", a.CostPerHourSaved)
				} else {
					fmt.Printf(" ($%.2f per hour saved)", a.CostPerHourSaved)
				}
			}
			fmt.Println()
		}
		rec := "burst"
		if !a.Burst {
			rec = "stay internal"
		}
		if a.Estimated {
			rec += " (estimated baseline)"
		}
		fmt.Println("  recommendation: " + rec)
	}
	if sawEstimated {
		fmt.Println("\n* estimated baseline: no ICOnly record in this scenario, so the slowest" +
			"\n  bursting run stands in — figures compare bursting strategies against each" +
			"\n  other, not bursting against a measured no-burst run")
	}
}

func writeChromeTrace(path string, events []cloudburst.TraceEvent) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := cloudburst.WriteChromeTrace(f, events); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	// Library errors already carry the cloudburst: prefix.
	fmt.Fprintln(os.Stderr, "cloudburst:", strings.TrimPrefix(err.Error(), "cloudburst: "))
	os.Exit(1)
}
