package engine

import (
	"strconv"

	"cloudburst/internal/cluster"
	"cloudburst/internal/job"
	"cloudburst/internal/netsim"
	"cloudburst/internal/sched"
	"cloudburst/internal/sla"
	"cloudburst/internal/stats"
	"cloudburst/internal/trace"
)

// RemoteSiteConfig describes one additional external cloud beyond the
// primary EC — the multi-provider setting the paper's introduction sketches
// ("one could possibly choose from a pool of Cloud Providers at run-time").
// Each site has its own cluster and its own network path.
type RemoteSiteConfig struct {
	Machines        int // default 2
	UploadProfile   *netsim.Profile
	DownloadProfile *netsim.Profile
	JitterCV        float64 // default: the engine's JitterCV
	// OnDemandRate overrides the cost model's on-demand price for this
	// site's machines ($/machine-hour); 0 inherits Config.Cost. Remote
	// sites are never spot-priced (the revocation model is primary-only).
	OnDemandRate float64
}

// ecSite is the live state of one external cloud. Site 0 is the primary EC,
// site k the k-th RemoteSiteConfig; every burst travels the same pipeline
// through its site (Fig. 5): upload queue → cluster → download queue →
// result queue.
type ecSite struct {
	cluster   *cluster.Cluster
	upQ       netsim.Uploader
	downQ     *netsim.Queue
	upPred    *netsim.Predictor
	downPred  *netsim.Predictor
	upTuner   *netsim.Tuner
	downTuner *netsim.Tuner
	prober    *netsim.Prober
	bursts    int
	// rate is the rental price of the site's machines in $/machine-hour.
	rate float64
	// upName and downName are the site's transfer queues as the trace
	// names them: "upload"/"download", with k appended for site k.
	upName, downName string
	// pendStd and pendDown hold the sums tallyPending last left.
	pendStd, pendDown float64
}

// buildSites builds site 0 from Config's EC and network fields and then
// one site per RemoteSiteConfig. The order fixes the link RNG streams —
// site 0 draws the two arena streams, every other site forks the network
// root for its uplink and then its downlink — and the order in which the
// sites' tickers enter the event queue.
func (e *Engine) buildSites() {
	cfg := e.cfg
	netRNG, upRNG, downRNG := e.netStreams()
	netRNG.Reset(cfg.NetSeed + 1)
	netRNG.ForkInto(upRNG)
	netRNG.ForkInto(downRNG)
	e.sites = make([]*ecSite, 0, 1+len(cfg.RemoteSites))
	primary := RemoteSiteConfig{
		Machines: cfg.ECMachines, JitterCV: cfg.JitterCV,
		UploadProfile: cfg.UploadProfile, DownloadProfile: cfg.DownloadProfile,
	}
	if cfg.Cost != nil {
		primary.OnDemandRate = cfg.Cost.Rate()
	}
	e.sites = append(e.sites, e.buildSite(primary, upRNG, downRNG))
	for _, rc := range cfg.RemoteSites {
		if rc.Machines == 0 {
			rc.Machines = 2
		}
		if rc.UploadProfile == nil {
			rc.UploadProfile = netsim.DiurnalProfile(600*1024, 0.3)
		}
		if rc.DownloadProfile == nil {
			rc.DownloadProfile = netsim.DiurnalProfile(900*1024, 0.3)
		}
		if rc.JitterCV == 0 {
			rc.JitterCV = cfg.JitterCV
		}
		if rc.OnDemandRate <= 0 && cfg.Cost != nil {
			rc.OnDemandRate = cfg.Cost.OnDemandRate
		}
		up := netRNG.Fork()
		down := netRNG.Fork()
		e.sites = append(e.sites, e.buildSite(rc, up, down))
	}
}

// buildSite wires the next site: its cluster, both links, predictors and
// tuners, its queues and its prober. The primary EC uploads through the
// SIBS split uploader when the scheduler publishes size-interval bounds;
// every other site keeps a single queue.
func (e *Engine) buildSite(rc RemoteSiteConfig, upRNG, downRNG *stats.RNG) *ecSite {
	cfg := e.cfg
	k := len(e.sites)
	suffix := ""
	if k > 0 {
		suffix = strconv.Itoa(k)
	}
	uplinkName, downlinkName := "uplink"+suffix, "downlink"+suffix
	s := &ecSite{
		cluster:   cluster.New(e.eng, "ec"+suffix, rc.Machines),
		rate:      rc.OnDemandRate,
		upPred:    netsim.NewPredictor(predictorSlots, cfg.PredictorAlpha, priorBW),
		downPred:  netsim.NewPredictor(predictorSlots, cfg.PredictorAlpha, priorBW),
		upTuner:   netsim.NewTuner(cfg.ThreadModel, 8),
		downTuner: netsim.NewTuner(cfg.ThreadModel, 8),
		upName:    "upload" + suffix,
		downName:  "download" + suffix,
	}
	e.attachClusterTrace(s.cluster)
	uplink := netsim.NewLink(e.eng, netsim.LinkConfig{
		Name:           uplinkName,
		Profile:        rc.UploadProfile,
		JitterCV:       rc.JitterCV,
		ResamplePeriod: resamplePeriod,
		Threads:        cfg.ThreadModel,
		Outages:        cfg.Outages,
		OnOutage:       e.outageTrace(uplinkName),
	}, upRNG)
	downlink := netsim.NewLink(e.eng, netsim.LinkConfig{
		Name:           downlinkName,
		Profile:        rc.DownloadProfile,
		JitterCV:       rc.JitterCV,
		ResamplePeriod: resamplePeriod,
		Threads:        cfg.ThreadModel,
		Outages:        cfg.Outages,
		OnOutage:       e.outageTrace(downlinkName),
	}, downRNG)

	if _, isSIBS := e.sched.(sched.BoundsPublisher); isSIBS && k == 0 {
		s.upQ = netsim.NewSplitUploader(e.eng, uplink, s.upTuner, job.Bytes(50), job.Bytes(150))
	} else {
		s.upQ = netsim.NewUploader(e.eng, s.upName, uplink, s.upTuner)
	}
	upMeasure := func(at, pathBW float64) { s.upPred.Observe(at, pathBW) }
	for _, q := range s.upQ.Queues() {
		q.OnMeasure = upMeasure
	}
	s.downQ = netsim.NewQueue(e.eng, s.downName, downlink, s.downTuner, 1)
	s.downQ.OnMeasure = func(at, pathBW float64) { s.downPred.Observe(at, pathBW) }

	s.prober = netsim.NewProber(e.eng, uplink, s.upPred, s.upTuner, netsim.ProberConfig{Period: probePeriod})
	e.attachProbeTrace(s.prober, uplinkName)
	return s
}

// setBounds hands the size-interval bounds a SIBS round published to every
// site's uploader; a one-queue uploader ignores them. ok false keeps the
// bounds the uploaders hold.
func (e *Engine) setBounds(sBound, mBound int64, ok bool) {
	if !ok {
		return
	}
	for _, s := range e.sites {
		s.upQ.SetBounds(sBound, mBound)
	}
}

// tallyPending walks the job table once, in ascending job ID, and leaves
// each site's pending work in pendStd and pendDown: the estimated compute
// of jobs still uploading toward it (dispatched, but invisible to its
// cluster backlog) and the output bytes that will reach its downlink but
// are not queued there yet.
func (e *Engine) tallyPending() {
	for _, s := range e.sites {
		s.pendStd, s.pendDown = 0, 0
	}
	for _, js := range e.states {
		if js == nil || js.place != sched.PlaceEC || js.done {
			continue
		}
		s := e.sites[js.site]
		if js.uploadItem != nil {
			s.pendStd += e.estimateJob(js.j)
		}
		if !js.downloading {
			s.pendDown += float64(js.j.OutputSize)
		}
	}
}

// siteState snapshots one site from its live queues and cluster.
// PendingStd and DownloadPending are the sums the last tallyPending left,
// so only a scheduling round, which tallies first, may read them; fault
// retries and idle pulls read the rest. It also returns the site's
// per-queue upload backlogs (small, medium, large; a single queue reports
// everything as large) and its effective upload parallelism, which
// sched.State carries for the primary EC only. The parallelism is the
// interval count given the current bounds, discounted by how the queued
// bytes actually spread across the queues — when everything single-files
// through one interval the path behaves like one thread-limited channel no
// matter how many intervals exist. A single queue's parallelism is 1.
//
// Predicted transfer bandwidth is the learned path capacity capped by what
// the uploader can actually drive: each queue moves one transfer at a time
// at the tuned thread count's limit, so a single queue cannot exceed
// Limit(threads) even on a fatter pipe, while the three SIBS queues can
// reach up to three times that. This is the mechanism behind the paper's
// claim that size-interval splitting "improves the utilization of the
// upload bandwidth by using parallel threads".
func (e *Engine) siteState(s *ecSite) (sched.SiteState, [3]float64, float64) {
	sm, md, lg := s.upQ.QueueBacklogs()
	upQueues := float64(s.upQ.Channels())
	if tot := sm + md + lg; tot > 0 {
		if spread := tot / max(sm, md, lg); spread < upQueues {
			upQueues = spread
		}
	}
	upQueues = max(upQueues, 1)
	upLimit := e.cfg.ThreadModel.Limit(s.upTuner.Threads())
	downLimit := e.cfg.ThreadModel.Limit(s.downTuner.Threads())
	return sched.SiteState{
		BacklogStd:      s.cluster.BacklogStdSeconds(),
		PendingStd:      s.pendStd,
		Machines:        s.cluster.ActiveSize(),
		Speed:           machineSpeed,
		UploadBacklog:   s.upQ.Backlog(),
		DownloadBacklog: s.downQ.Backlog(),
		DownloadPending: s.pendDown,
		PredictUploadBW: func(t float64) float64 {
			return capBW(s.upPred.Predict(t), upLimit, upQueues)
		},
		PredictDownloadBW: func(t float64) float64 {
			return capBW(s.downPred.Predict(t), downLimit, 1)
		},
	}, [3]float64{sm, md, lg}, upQueues
}

// capBW caps a predicted bandwidth at what queues thread-limited channels
// can drive.
func capBW(pred, limit, queues float64) float64 {
	if lim := limit * queues; pred > lim {
		return lim
	}
	return pred
}

// submitUpload starts the EC path through the job's site: upload, remote
// compute, download. The transfer callbacks look the site up by js.site
// instead of capturing it, one captured word less per queued transfer.
func (e *Engine) submitUpload(js *jobState) {
	s := e.sites[js.site]
	if e.wants(trace.UploadStart) {
		e.tracer.Emit(trace.Event{
			Type: trace.UploadStart, T: e.eng.Now(),
			JobID: js.j.ID, Seq: js.seq, Site: js.site, Link: s.upName, Bytes: js.j.InputSize,
		})
	}
	it := &netsim.QueueItem{
		Bytes: js.j.InputSize,
		Meta:  js,
		OnDone: func(at float64, it *netsim.QueueItem, bw float64) {
			js.uploadItem = nil
			e.uploadedBytes += it.Bytes
			if e.wants(trace.UploadEnd) {
				e.tracer.Emit(trace.Event{
					Type: trace.UploadEnd, T: at,
					JobID: js.j.ID, Seq: js.seq, Site: js.site, Link: e.sites[js.site].upName,
					Bytes: it.Bytes, BW: bw,
				})
			}
			e.submitEC(js)
		},
	}
	js.uploadItem = it
	s.upQ.Enqueue(it)
}

func (e *Engine) submitEC(js *jobState) {
	c := e.sites[js.site].cluster
	if c.Size() == 0 {
		// The upload landed on a fully revoked EC (everything died while the
		// transfer was in flight); nothing can ever run it there.
		e.fallBack(js, e.eng.Now())
		return
	}
	c.Submit(&cluster.Task{
		Job:        js.j,
		StdSeconds: js.j.TrueProcTime,
		OnDone: func(at float64, t *cluster.Task, m *cluster.Machine) {
			e.observeProc(js.j, at-t.StartedAt)
			e.submitDownload(js, at)
		},
	})
}

func (e *Engine) submitDownload(js *jobState, at float64) {
	s := e.sites[js.site]
	js.downloading = true
	if e.wants(trace.DownloadStart) {
		e.tracer.Emit(trace.Event{
			Type: trace.DownloadStart, T: at,
			JobID: js.j.ID, Seq: js.seq, Site: js.site, Link: s.downName, Bytes: js.j.OutputSize,
		})
	}
	s.downQ.Enqueue(&netsim.QueueItem{
		Bytes: js.j.OutputSize,
		Meta:  js,
		OnDone: func(doneAt float64, it *netsim.QueueItem, bw float64) {
			e.downloadedBytes += it.Bytes
			if e.wants(trace.DownloadEnd) {
				e.tracer.Emit(trace.Event{
					Type: trace.DownloadEnd, T: doneAt,
					JobID: js.j.ID, Seq: js.seq, Site: js.site, Link: e.sites[js.site].downName,
					Bytes: it.Bytes, BW: bw,
				})
			}
			e.complete(js, doneAt, sla.EC)
		},
	})
}
