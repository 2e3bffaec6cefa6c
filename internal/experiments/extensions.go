package experiments

import (
	"cloudburst/internal/engine"
	"cloudburst/internal/netsim"
	"cloudburst/internal/sched"
	"cloudburst/internal/workload"
)

// Extension studies: the paper's future-work directions, built and
// measured. They are not part of the ICPP 2010 evaluation, so they carry
// no paper-vs-measured verdicts — the tables quantify the design space the
// paper sketches.

// ExtensionAutoscale measures the elastic-EC scaling policy (Sec. V-B4
// future work: "the scaling at EC must be just enough to ensure saturation
// of the download bandwidth") against fixed fleets: SLA on one axis,
// rented machine time (the cloud bill) on the other.
func ExtensionAutoscale(seed int64) (*Table, error) {
	t := &Table{
		Title: "Extension — elastic EC fleet vs fixed fleets (Op, uniform bucket)",
		Header: []string{"fleet", "makespan_s", "speedup", "EC-Util%",
			"rented_mach_h", "peak_mach"},
	}
	wcfg := workload.Config{Batches: 8, MeanJobsPerBatch: 15}
	// A fat, well-threaded pipe makes EC compute (not the network) the
	// binding resource, so the fleet size actually matters — the regime
	// where a scaling policy earns its keep.
	fatPipe := func(ec int, auto *engine.AutoscaleConfig) engine.Config {
		return engine.Config{
			ECMachines:      ec,
			Autoscale:       auto,
			UploadProfile:   netsim.DiurnalProfile(2500*1024, 0.3),
			DownloadProfile: netsim.DiurnalProfile(3000*1024, 0.3),
			ThreadModel:     netsim.ThreadModel{PerThread: 200 * 1024, Penalty: 0.02, MaxThread: 24},
		}
	}
	variants := []struct {
		name string
		cfg  engine.Config
	}{
		{"fixed-2", fatPipe(2, nil)},
		{"fixed-6", fatPipe(6, nil)},
		{"elastic-1..6", fatPipe(1, &engine.AutoscaleConfig{Max: 6, TargetWait: 180})},
	}
	for _, v := range variants {
		rs, err := RunReplicated(RunSpec{
			Bucket:    workload.UniformMix,
			Workload:  wcfg,
			Engine:    v.cfg,
			Scheduler: func() sched.Scheduler { return sched.OrderPreserving{} },
		}, DefaultReplications(seed, 3))
		if err != nil {
			return nil, err
		}
		t.AddRow(v.name,
			fmtF(meanOf(rs, func(r *engine.Result) float64 { return r.Makespan }), 0),
			fmtF(meanOf(rs, func(r *engine.Result) float64 { return r.Speedup }), 2),
			fmtF(100*meanOf(rs, func(r *engine.Result) float64 { return r.ECUtil }), 1),
			fmtF(meanOf(rs, func(r *engine.Result) float64 { return r.ECMachineSeconds })/3600, 1),
			fmtF(meanOf(rs, func(r *engine.Result) float64 { return float64(r.ECPeakMachines) }), 1),
		)
	}
	t.AddNote("the elastic fleet should approach fixed-6 makespan at a fraction of its rented hours")
	return t, nil
}

// ExtensionTickets measures the ticket SLA (Sec. I: jobs "are given a
// ticket that they will finish a certain number of seconds from their
// submission point") across schedulers: the tightest uniform promise each
// scheduler could keep for 95% of jobs, and how a fixed promise fares.
func ExtensionTickets(seed int64) (*Table, error) {
	t := &Table{
		Title:  "Extension — ticket SLAs by scheduler (uniform bucket)",
		Header: []string{"scheduler", "p95_quote_s", "kept@3600s", "mean_late_s"},
	}
	for _, name := range []string{"ICOnly", "Greedy", "Op", "SIBS"} {
		rs, err := RunReplicated(RunSpec{
			Bucket:    workload.UniformMix,
			Scheduler: schedulerFactories()[name],
		}, DefaultReplications(seed, 3))
		if err != nil {
			return nil, err
		}
		var quote, kept, late float64
		for _, r := range rs {
			quote += r.Records.MinimalUniformTicket(0.95)
			rep := r.Records.TicketsKept(fixedTicket3600)
			kept += rep.KeptRatio
			late += rep.MeanLateness
		}
		n := float64(len(rs))
		t.AddRow(name, fmtF(quote/n, 0), fmtF(kept/n, 2), fmtF(late/n, 0))
	}
	t.AddNote("p95_quote: tightest uniform promise keeping 95%% of jobs; kept@3600s: fraction finishing within a one-hour ticket")
	return t, nil
}

// fixedTicket3600 is a shared one-hour promise.
var fixedTicket3600 = func() func(int, int64) float64 {
	return func(int, int64) float64 { return 3600 }
}()

// ExtensionMultiEC measures bursting to a pool of providers (the paper's
// intro: "one could possibly choose from a pool of Cloud Providers at
// run-time"): a single provider vs. two smaller ones with independent
// network paths vs. two asymmetric ones.
func ExtensionMultiEC(seed int64) (*Table, error) {
	t := &Table{
		Title:  "Extension — multi-provider bursting (Op, uniform bucket)",
		Header: []string{"providers", "makespan_s", "speedup", "burst", "remote_share"},
	}
	wcfg := workload.Config{Batches: 8, MeanJobsPerBatch: 15}
	variants := []struct {
		name string
		cfg  engine.Config
	}{
		{"one(2 VMs)", engine.Config{ECMachines: 2}},
		{"two(2+2 VMs)", engine.Config{
			ECMachines:  2,
			RemoteSites: []engine.RemoteSiteConfig{{Machines: 2}},
		}},
		{"asym(2 + fast 3)", engine.Config{
			ECMachines: 2,
			RemoteSites: []engine.RemoteSiteConfig{{
				Machines:        3,
				UploadProfile:   netsim.DiurnalProfile(1200*1024, 0.3),
				DownloadProfile: netsim.DiurnalProfile(1500*1024, 0.3),
			}},
		}},
	}
	for _, v := range variants {
		rs, err := RunReplicated(RunSpec{
			Bucket:    workload.UniformMix,
			Workload:  wcfg,
			Engine:    v.cfg,
			Scheduler: func() sched.Scheduler { return sched.OrderPreserving{} },
		}, DefaultReplications(seed, 3))
		if err != nil {
			return nil, err
		}
		remoteShare := meanOf(rs, func(r *engine.Result) float64 {
			if len(r.SiteBursts) == 0 {
				return 0
			}
			ec := float64(r.Records.Len()) * r.BurstRatio
			if ec == 0 {
				return 0
			}
			return float64(r.SiteBursts[0]) / ec
		})
		t.AddRow(v.name,
			fmtF(meanOf(rs, func(r *engine.Result) float64 { return r.Makespan }), 0),
			fmtF(meanOf(rs, func(r *engine.Result) float64 { return r.Speedup }), 2),
			fmtF(meanOf(rs, func(r *engine.Result) float64 { return r.BurstRatio }), 2),
			fmtF(remoteShare, 2),
		)
	}
	t.AddNote("a second independent network path raises total burst throughput; the faster provider draws the larger share")
	return t, nil
}

// Extensions runs every extension driver.
func Extensions(seed int64) ([]*Table, error) {
	var out []*Table
	for _, d := range []func(int64) (*Table, error){ExtensionAutoscale, ExtensionTickets, ExtensionMultiEC} {
		tab, err := d(seed)
		if err != nil {
			return nil, err
		}
		out = append(out, tab)
	}
	return out, nil
}
