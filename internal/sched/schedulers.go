package sched

import (
	"math"

	"cloudburst/internal/job"
)

// ICOnly is the baseline scheduler: every job runs on the internal cloud.
// The paper uses it as the reference for the relative OO metric (Fig. 10)
// and the makespan comparison (Fig. 6).
type ICOnly struct{}

// Name implements Scheduler.
func (ICOnly) Name() string { return "ICOnly" }

// Schedule implements Scheduler.
func (ICOnly) Schedule(batch []*job.Job, st *State, alloc job.IDAllocator) []Decision {
	out := make([]Decision, len(batch))
	for i, j := range batch {
		out[i] = Decision{Job: j, Place: PlaceIC}
	}
	return out
}

// Greedy is Algorithm 1 as printed: each job is compared against the
// *current* system state — ft_ic(j) vs ft_ec(j) — and placed where it is
// expected to finish first. The pseudo-code carries no bookkeeping of the
// decisions already made within the batch, so when the EC momentarily looks
// cheap every job in the batch sees the same cheap estimate and the
// scheduler over-bursts; the resulting transient congestion is the source
// of the out-of-order peaks the paper attributes to Greedy ("making a
// greedy decision ... based on the transient value of bandwidth").
//
// GreedyTracking is the repaired variant used in ablation benches.
type Greedy struct{}

// Name implements Scheduler.
func (Greedy) Name() string { return "Greedy" }

// Schedule implements Scheduler.
//
// Dispatching a job to the EC immediately lengthens the (locally
// observable) upload queue, so the EC estimate reflects jobs already sent;
// the IC estimate, however, is the line-3 snapshot ft^ic against the
// backlog observed when the batch arrived — the pseudo-code carries no
// update for it.
func (Greedy) Schedule(batch []*job.Job, st *State, alloc job.IDAllocator) []Decision {
	out := make([]Decision, 0, len(batch))
	adm := newAdmission(st)
	for _, j := range batch {
		est := st.estProc(j)
		// ft^ic: wait for the aggregate IC backlog, then process.
		tic := st.ICBacklogStd/(float64(max(st.ICMachines, 1))*st.ICSpeed) + est/st.ICSpeed
		site, tec := bestSite(adm.pipes, j, est)
		d := Decision{Job: j, EstProcStd: est, EstEC: tec, Threshold: tic, Gated: true}
		adm.admit(&d, tic > tec, site)
		out = append(out, d)
	}
	return out
}

// admission is one batch's budget-gated burst step: the estimate pipeline
// of every external cloud and the budget left to commit against.
type admission struct {
	st     *State
	pipes  []*ecPipeline
	budget float64
}

func newAdmission(st *State) admission {
	return admission{st: st, pipes: allPipelines(st), budget: st.BudgetRemaining}
}

// admit settles a gated decision whose EstEC-vs-Threshold comparison chose
// a burst when burst is true. A burst whose charge overruns the remaining
// budget stays internal. An admitted burst commits to its site's pipeline
// and pays its charge; it reports true. Otherwise d goes to the IC, and
// when there was no admissible comparison — no viable EC pipeline (fleet
// revoked, EstEC +Inf) or the budget overrode it — d drops its estimate
// and its gate, so +Inf never reaches the trace stream.
func (a *admission) admit(d *Decision, burst bool, site int) bool {
	var charge float64
	overBudget := false
	if burst && a.st.BurstCharge != nil {
		if charge = a.st.BurstCharge(d.EstProcStd); charge > a.budget {
			burst, overBudget = false, true
		}
	}
	if burst {
		a.pipes[site].commit(d.Job, d.EstProcStd)
		a.budget -= charge
		d.Place, d.Site = PlaceEC, site
		return true
	}
	d.Place = PlaceIC
	if math.IsInf(d.EstEC, 1) || overBudget {
		d.EstEC, d.Gated, d.BudgetDenied = 0, false, overBudget
	}
	return false
}

// GreedyTracking is Greedy with within-batch bookkeeping: each decision
// updates a virtual model of both clouds, so later jobs in the batch see
// the load committed by earlier ones. It exists to quantify (in the
// ablation benches) how much of Greedy's pathology is the missing feedback
// rather than greediness itself.
type GreedyTracking struct{}

// Name implements Scheduler.
func (GreedyTracking) Name() string { return "GreedyTracking" }

// Schedule implements Scheduler.
func (GreedyTracking) Schedule(batch []*job.Job, st *State, alloc job.IDAllocator) []Decision {
	ic := newVirtualPool(st.ICMachines, st.ICSpeed, st.ICBacklogStd)
	adm := newAdmission(st)
	out := make([]Decision, 0, len(batch))
	for _, j := range batch {
		est := st.estProc(j)
		tic := peekPool(ic, est)
		site, tec := bestSite(adm.pipes, j, est)
		d := Decision{Job: j, EstProcStd: est, EstEC: tec, Threshold: tic, Gated: true}
		if !adm.admit(&d, tic > tec, site) {
			ic.add(est, 0)
		}
		out = append(out, d)
	}
	return out
}

// peekPool estimates completion on the pool without committing.
func peekPool(v *virtualPool, stdSeconds float64) float64 {
	return v.earliest() + stdSeconds/v.speed
}

// Config tunes the Order Preserving scheduler's chunking pass and slack
// margin.
type Config struct {
	// ChunkWindow is x in Algorithm 2: the look-ahead window for the size
	// variability check. Default 4.
	ChunkWindow int
	// ChunkStdThresholdMB is th: chunk the current job when the window's
	// size standard deviation exceeds this. Default 60 MB.
	ChunkStdThresholdMB float64
	// ChunkTargetMB is the chunk size pdfchunk aims for. Default 50 MB.
	ChunkTargetMB float64
	// SlackMargin τ is subtracted from the slack before the comparison,
	// making bursting more conservative. Default 0.
	SlackMargin float64
}

func (c Config) withDefaults() Config {
	if c.ChunkWindow == 0 {
		c.ChunkWindow = 4
	}
	if c.ChunkStdThresholdMB == 0 {
		c.ChunkStdThresholdMB = 60
	}
	if c.ChunkTargetMB == 0 {
		c.ChunkTargetMB = 50
	}
	return c
}

// OrderPreserving is Algorithm 2: it first reduces job-size variance by
// chunking oversized jobs (lines 3–10), then bursts exactly those jobs
// whose estimated EC round trip fits inside their slack (lines 11–17), so
// bursted jobs are never on the critical path if the estimates hold.
type OrderPreserving struct {
	Cfg Config
}

// Name implements Scheduler.
func (o OrderPreserving) Name() string { return "Op" }

// Schedule implements Scheduler.
func (o OrderPreserving) Schedule(batch []*job.Job, st *State, alloc job.IDAllocator) []Decision {
	cfg := o.Cfg.withDefaults()
	jobs := chunkPass(batch, cfg, alloc)
	return placeWithSlack(jobs, st, cfg)
}

// chunkPass implements lines 3–10 of Algorithm 2: walk the list with a
// sliding window; when the window's size deviation exceeds the threshold,
// replace the current job with its chunks in place.
func chunkPass(batch []*job.Job, cfg Config, alloc job.IDAllocator) []*job.Job {
	jobs := append([]*job.Job(nil), batch...)
	target := job.Bytes(cfg.ChunkTargetMB)
	thresholdB := cfg.ChunkStdThresholdMB * float64(job.Megabyte)
	for i := 0; i < len(jobs); i++ {
		hi := i + cfg.ChunkWindow
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
		// J.remove(i); J.insert(i, C): chunks take the parent's position.
		tail := append([]*job.Job(nil), jobs[i+1:]...)
		jobs = append(jobs[:i], append(chunks, tail...)...)
		i += len(chunks) - 1 // skip past the inserted chunks
	}
	return jobs
}

// sizeStd returns the population standard deviation of the window's input
// sizes in bytes.
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

// placeWithSlack implements lines 11–17 of Algorithm 2 over an already
// chunked list. The slack of position i is the largest estimated completion
// of the *internally placed* jobs preceding it — per the paper's reading of
// eq. (1), a bursted job must make its round trip before the IC work ahead
// of it drains. Counting earlier EC completions toward slack instead would
// let each burst extend the next one's cushion, cascading the external
// cloud onto the critical path.
func placeWithSlack(jobs []*job.Job, st *State, cfg Config) []Decision {
	ic := newVirtualPool(st.ICMachines, st.ICSpeed, st.ICBacklogStd)
	adm := newAdmission(st)
	out := make([]Decision, 0, len(jobs))
	var maxICCompletion float64 // slack(J, i): latest internal completion so far
	for _, j := range jobs {
		est := st.estProc(j)
		site, tec := bestSite(adm.pipes, j, est)
		slack := maxICCompletion - cfg.SlackMargin
		d := Decision{Job: j, EstProcStd: est, EstEC: tec, Threshold: slack, Gated: true}
		if !adm.admit(&d, tec <= slack, site) {
			if done := ic.add(est, 0); done > maxICCompletion {
				maxICCompletion = done
			}
		}
		out = append(out, d)
	}
	return out
}

// Slack exposes equation (1) for diagnostics and tests: given estimated
// completion offsets of the jobs preceding position i, the slack is their
// maximum (zero for the head of the queue).
func Slack(completionsBefore []float64) float64 {
	var m float64
	for _, c := range completionsBefore {
		if c > m {
			m = c
		}
	}
	return m
}
