package refsim

import (
	"math"

	"cloudburst/internal/job"
	"cloudburst/internal/sched"
)

// This file holds the reference twins of the production schedulers. Every
// optimized structure — the fheap min-heaps inside virtualPool/ecPipeline,
// the incremental horizon bookkeeping — is replaced by a plain slice and a
// linear scan. The arithmetic is replicated expression for expression:
// slots are interchangeable (only their free times matter), so as long as
// the naive code books work onto *a* minimum slot using the same formulas,
// the multiset of horizons and every returned estimate evolve bit-identically
// to the production scheduler, and the differential harness can demand
// exact agreement rather than a loose tolerance.

// slots is an unordered set of free-time horizons.
type slots []float64

func (s slots) min() float64 {
	m := s[0]
	for _, v := range s[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

func (s slots) replaceMin(v float64) {
	mi := 0
	for i := 1; i < len(s); i++ {
		if s[i] < s[mi] {
			mi = i
		}
	}
	s[mi] = v
}

// estProc mirrors sched.State.estProc: QRSM estimate with the same
// pathological-value guard.
func estProc(st *sched.State, j *job.Job) float64 {
	var e float64
	if st.EstimateJob != nil {
		e = st.EstimateJob(j)
	} else {
		e = st.EstimateProc(j.Features)
	}
	if e <= 0 || math.IsNaN(e) {
		e = 1
	}
	return e
}

func guardBW(bw float64) float64 {
	if bw <= 0 || math.IsNaN(bw) {
		return 1
	}
	return bw
}

// refPool is the naive virtual machine pool: when each machine frees up,
// as seconds from now, with the observed backlog spread evenly.
type refPool struct {
	free  slots
	speed float64
}

func newRefPool(machines int, speed, backlogStd float64) *refPool {
	if machines < 1 {
		machines = 1
	}
	per := backlogStd / (float64(machines) * speed)
	p := &refPool{free: make(slots, machines), speed: speed}
	for i := range p.free {
		p.free[i] = per
	}
	return p
}

func (p *refPool) add(stdSeconds, readyAt float64) float64 {
	start := p.free.min()
	if readyAt > start {
		start = readyAt
	}
	end := start + stdSeconds/p.speed
	p.free.replaceMin(end)
	return end
}

// refPipeline is the naive EC round-trip pipeline: upload channels, remote
// pool, serial download, all in seconds-from-now.
type refPipeline struct {
	now      float64
	upBW     func(t float64) float64
	downBW   func(t float64) float64
	upFree   slots
	channels float64
	downFree float64
	pool     *refPool
	viable   bool
}

func buildRefPipeline(now float64, upBW, downBW func(t float64) float64,
	channels int, upBacklog, downBacklog float64, poolMachines int, poolSpeed, poolBacklog float64) *refPipeline {
	if channels < 1 {
		channels = 1
	}
	agg := guardBW(upBW(now))
	perChannelStart := upBacklog / agg
	upFree := make(slots, channels)
	for i := range upFree {
		upFree[i] = perChannelStart
	}
	return &refPipeline{
		now:      now,
		upBW:     func(t float64) float64 { return guardBW(upBW(t)) },
		downBW:   func(t float64) float64 { return guardBW(downBW(t)) },
		upFree:   upFree,
		channels: float64(channels),
		downFree: downBacklog / guardBW(downBW(now)),
		pool:     newRefPool(poolMachines, poolSpeed, poolBacklog),
		viable:   poolMachines > 0,
	}
}

// refPipelines returns one pipeline per external cloud: index 0 the primary
// EC, 1+k the k-th remote site.
func refPipelines(st *sched.State) []*refPipeline {
	out := make([]*refPipeline, 0, 1+len(st.RemoteSites))
	out = append(out, buildRefPipeline(st.Now, st.PredictUploadBW, st.PredictDownloadBW,
		st.UploadChannels, st.UploadBacklog,
		st.DownloadBacklog+st.DownloadPending,
		st.ECMachines, st.ECSpeed, st.ECBacklogStd+st.ECPendingStd))
	for _, site := range st.RemoteSites {
		out = append(out, buildRefPipeline(st.Now, site.PredictUploadBW, site.PredictDownloadBW,
			1, site.UploadBacklog,
			site.DownloadBacklog+site.DownloadPending,
			site.Machines, site.Speed, site.BacklogStd+site.PendingStd))
	}
	return out
}

func refBestSite(pipes []*refPipeline, j *job.Job, estStd float64) (int, float64) {
	best, bestV := 0, pipes[0].estimate(j, estStd)
	for i := 1; i < len(pipes); i++ {
		if v := pipes[i].estimate(j, estStd); v < bestV {
			best, bestV = i, v
		}
	}
	return best, bestV
}

func (p *refPipeline) chRateAt(startOffset float64) float64 {
	return p.upBW(p.now+startOffset) / p.channels
}

func (p *refPipeline) estimate(j *job.Job, estStd float64) float64 {
	if !p.viable {
		return math.Inf(1)
	}
	start := p.upFree.min()
	upEnd := start + float64(j.InputSize)/p.chRateAt(start)
	procStart := math.Max(p.pool.free.min(), upEnd)
	procEnd := procStart + estStd/p.pool.speed
	downStart := math.Max(procEnd, p.downFree)
	downDur := float64(j.OutputSize) / p.downBW(p.now+downStart)
	return downStart + downDur
}

func (p *refPipeline) commit(j *job.Job, estStd float64) float64 {
	start := p.upFree.min()
	upEnd := start + float64(j.InputSize)/p.chRateAt(start)
	p.upFree.replaceMin(upEnd)
	procEnd := p.pool.add(estStd, upEnd)
	downStart := math.Max(procEnd, p.downFree)
	downDur := float64(j.OutputSize) / p.downBW(p.now+downStart)
	p.downFree = downStart + downDur
	return p.downFree
}

// refChunkWindow is the reference twin's own copy of Algorithm 2's
// look-ahead window x, kept apart from sched's so the oracle stays
// independent.
const refChunkWindow = 4

// cfgDefaults mirrors sched.Config.withDefaults.
func cfgDefaults(c sched.Config) sched.Config {
	if c.ChunkStdThresholdMB == 0 {
		c.ChunkStdThresholdMB = 60
	}
	if c.ChunkTargetMB == 0 {
		c.ChunkTargetMB = 50
	}
	return c
}

// Greedy is the reference twin of sched.Greedy (Algorithm 1): per-job
// comparison of the line-3 IC snapshot against the committed EC pipeline.
type Greedy struct{}

// Name matches the production scheduler so runs are interchangeable.
func (Greedy) Name() string { return "Greedy" }

// Schedule implements sched.Scheduler.
func (Greedy) Schedule(batch []*job.Job, st *sched.State, alloc job.IDAllocator) []sched.Decision {
	out := make([]sched.Decision, 0, len(batch))
	pipes := refPipelines(st)
	budget := st.BudgetRemaining
	for _, j := range batch {
		est := estProc(st, j)
		tic := st.ICBacklogStd/(float64(max(st.ICMachines, 1))*st.ICSpeed) + est/st.ICSpeed
		site, tec := refBestSite(pipes, j, est)
		d := sched.Decision{Job: j, EstProcStd: est, EstEC: tec, Threshold: tic, Gated: true}
		burst := tic > tec
		var charge float64
		overBudget := false
		if burst && st.BurstCharge != nil {
			if charge = st.BurstCharge(est); charge > budget {
				burst, overBudget = false, true
			}
		}
		if burst {
			pipes[site].commit(j, est)
			budget -= charge
			d.Place, d.Site = sched.PlaceEC, site
		} else {
			d.Place = sched.PlaceIC
			if math.IsInf(tec, 1) || overBudget {
				d.EstEC, d.Gated, d.BudgetDenied = 0, false, overBudget
			}
		}
		out = append(out, d)
	}
	return out
}

// chunkPass mirrors sched.chunkPass (Algorithm 2 lines 3–10).
func chunkPass(batch []*job.Job, cfg sched.Config, alloc job.IDAllocator) []*job.Job {
	jobs := append([]*job.Job(nil), batch...)
	target := job.Bytes(cfg.ChunkTargetMB)
	thresholdB := cfg.ChunkStdThresholdMB * float64(job.Megabyte)
	for i := 0; i < len(jobs); i++ {
		hi := i + refChunkWindow
		if hi > len(jobs) {
			hi = len(jobs)
		}
		v := sizeStd(jobs[i:hi])
		if v <= thresholdB || jobs[i].InputSize <= target {
			continue
		}
		chunks := job.ChunkToSize(jobs[i], target, alloc)
		if len(chunks) == 1 {
			continue
		}
		tail := append([]*job.Job(nil), jobs[i+1:]...)
		jobs = append(jobs[:i], append(chunks, tail...)...)
		i += len(chunks) - 1
	}
	return jobs
}

// sizeStd mirrors sched.sizeStd: population standard deviation in bytes.
func sizeStd(window []*job.Job) float64 {
	if len(window) < 2 {
		return 0
	}
	var mean float64
	for _, j := range window {
		mean += float64(j.InputSize)
	}
	mean /= float64(len(window))
	var v float64
	for _, j := range window {
		d := float64(j.InputSize) - mean
		v += d * d
	}
	return math.Sqrt(v / float64(len(window)))
}

// placeWithSlack mirrors sched.placeWithSlack (Algorithm 2 lines 11–17).
func placeWithSlack(jobs []*job.Job, st *sched.State, cfg sched.Config) []sched.Decision {
	ic := newRefPool(st.ICMachines, st.ICSpeed, st.ICBacklogStd)
	pipes := refPipelines(st)
	out := make([]sched.Decision, 0, len(jobs))
	var maxICCompletion float64
	budget := st.BudgetRemaining
	for _, j := range jobs {
		est := estProc(st, j)
		site, tec := refBestSite(pipes, j, est)
		slack := maxICCompletion - cfg.SlackMargin
		d := sched.Decision{Job: j, EstProcStd: est, EstEC: tec, Threshold: slack, Gated: true}
		burst := tec <= slack
		var charge float64
		overBudget := false
		if burst && st.BurstCharge != nil {
			if charge = st.BurstCharge(est); charge > budget {
				burst, overBudget = false, true
			}
		}
		if burst {
			pipes[site].commit(j, est)
			budget -= charge
			d.Place, d.Site = sched.PlaceEC, site
		} else {
			done := ic.add(est, 0)
			d.Place = sched.PlaceIC
			if done > maxICCompletion {
				maxICCompletion = done
			}
			if math.IsInf(tec, 1) || overBudget {
				d.EstEC, d.Gated, d.BudgetDenied = 0, false, overBudget
			}
		}
		out = append(out, d)
	}
	return out
}

// Op is the reference twin of sched.OrderPreserving (Algorithm 2).
type Op struct {
	Cfg sched.Config
}

// Name matches the production scheduler.
func (Op) Name() string { return "Op" }

// Schedule implements sched.Scheduler.
func (o Op) Schedule(batch []*job.Job, st *sched.State, alloc job.IDAllocator) []sched.Decision {
	cfg := cfgDefaults(o.Cfg)
	jobs := chunkPass(batch, cfg, alloc)
	return placeWithSlack(jobs, st, cfg)
}

// SIBS is the reference twin of sched.SIBS (Algorithm 3). It implements
// sched.BoundsPublisher, so the engine gives it the same split-uploader
// treatment as the production scheduler.
type SIBS struct {
	Cfg    sched.Config
	CVGate float64

	lastSBound, lastMBound int64
	boundsValid            bool
}

// Name matches the production scheduler.
func (s *SIBS) Name() string { return "SIBS" }

// Bounds implements sched.BoundsPublisher.
func (s *SIBS) Bounds() (sBound, mBound int64, ok bool) {
	return s.lastSBound, s.lastMBound, s.boundsValid
}

// Schedule implements sched.Scheduler.
func (s *SIBS) Schedule(batch []*job.Job, st *sched.State, alloc job.IDAllocator) []sched.Decision {
	cfg := cfgDefaults(s.Cfg)
	jobs := chunkPass(batch, cfg, alloc)
	s.computeBounds(jobs, st)
	return placeWithSlack(jobs, st, cfg)
}

func (s *SIBS) cvGate() float64 {
	if s.CVGate == 0 {
		return 0.2
	}
	if s.CVGate < 0 {
		return 0
	}
	return s.CVGate
}

// computeBounds mirrors sched.SIBS.computeBounds, with an insertion sort
// replacing sort.Slice and a straight-line partition replacing
// netsim.PartitionBySize.
func (s *SIBS) computeBounds(jobs []*job.Job, st *sched.State) {
	n := st.ICMachines
	if n < 1 {
		n = 1
	}
	iload := st.ICBacklogStd / (float64(n) * st.ICSpeed)
	upBW := guardBW(st.PredictUploadBW(st.Now))
	downBW := guardBW(st.PredictDownloadBW(st.Now))

	var candidates []int64
	var rload float64
	for _, j := range jobs {
		est := estProc(st, j)
		tec := float64(j.InputSize)/upBW + est/st.ECSpeed + float64(j.OutputSize)/downBW
		if tec < iload+rload/(float64(n)*st.ICSpeed) {
			candidates = append(candidates, j.InputSize)
		} else {
			rload += est
		}
	}
	if len(candidates) == 0 {
		s.boundsValid = false
		return
	}
	if sizeCV(candidates) < s.cvGate() {
		s.lastSBound, s.lastMBound = 0, 0
		s.boundsValid = true
		return
	}
	sUp, mUp, lUp := st.UploadQueues[0], st.UploadQueues[1], st.UploadQueues[2]
	total := sUp + mUp + lUp
	var sLeft, mLeft, lLeft float64
	if total <= 0 {
		sLeft, mLeft, lLeft = 1, 1, 1
	} else {
		sLeft = 1 - sUp/total
		mLeft = 1 - mUp/total
		lLeft = 1 - lUp/total
	}
	insertionSort(candidates)
	s.lastSBound, s.lastMBound = partitionBySize(candidates, sLeft, mLeft, lLeft)
	s.boundsValid = true
}

// sizeCV mirrors sched.sizeCV.
func sizeCV(sizes []int64) float64 {
	if len(sizes) < 2 {
		return 0
	}
	var mean float64
	for _, v := range sizes {
		mean += float64(v)
	}
	mean /= float64(len(sizes))
	if mean == 0 {
		return 0
	}
	var v float64
	for _, x := range sizes {
		d := float64(x) - mean
		v += d * d
	}
	return math.Sqrt(v/float64(len(sizes))) / mean
}

func insertionSort(a []int64) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// partitionBySize mirrors netsim.PartitionBySize over an ascending size
// list: counts proportional to the normalized left-over capacities.
func partitionBySize(sorted []int64, sLeft, mLeft, lLeft float64) (sBound, mBound int64) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	total := sLeft + mLeft + lLeft
	if total <= 0 {
		sLeft, mLeft, lLeft = 1, 1, 1
		total = 3
	}
	sCount := int(math.Round(float64(n) * sLeft / total))
	mCount := int(math.Round(float64(n) * mLeft / total))
	if sCount > n {
		sCount = n
	}
	if sCount+mCount > n {
		mCount = n - sCount
	}
	if sCount > 0 {
		sBound = sorted[sCount-1]
	}
	if sCount+mCount > 0 {
		mBound = sorted[sCount+mCount-1]
	}
	if mBound < sBound {
		mBound = sBound
	}
	return sBound, mBound
}
