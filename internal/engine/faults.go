package engine

import (
	"fmt"
	"math"

	"cloudburst/internal/cluster"
	"cloudburst/internal/netsim"
	"cloudburst/internal/sched"
	"cloudburst/internal/stats"
	"cloudburst/internal/trace"
)

// Fault injection and the recovery control loop. The failure model has
// three layers — machine faults on either cluster, transfer stalls on the
// primary EC links — and one invariant: no job is ever lost. Every affected
// job re-enters the pipeline through the recovery state machine:
//
//	fault → (backoff) → slack re-check → re-burst   (budget left, EC alive)
//	                                   ↘ IC fallback (budget spent or EC dead)
//
// Re-bursts are admitted by the same slack rule as regular placements
// (Sec. IV, eq. 1 adapted), so recovery cannot silently put the external
// cloud on the critical path; everything that fails the rule — or runs out
// of retries — executes on the IC instead.

// FaultConfig groups the failure models and the recovery policy.
type FaultConfig struct {
	// ECRevocation fails machines of the primary EC. With MTTR <= 0 (the
	// default) failures are permanent spot-style revocations; WarnLead gives
	// the advance notice real spot markets provide.
	ECRevocation cluster.FaultModel
	// ICCrash fails internal machines; these must be repairable (MTTR > 0),
	// the IC being the fallback of last resort.
	ICCrash cluster.FaultModel
	// TransferStalls freezes primary-link transfers until a sender timeout
	// aborts them.
	TransferStalls netsim.StallModel

	// MaxRetries bounds EC re-admissions per job before it falls back to
	// the IC (default 2). Negative means zero: always fall back.
	MaxRetries int
	// RetryBackoff is the base delay before a retry; attempt n waits
	// RetryBackoff * 2^(n-1) seconds (default 30).
	RetryBackoff float64
	// Seed drives the dedicated fault RNG, independent of the workload and
	// network streams.
	Seed int64
}

// Enabled reports whether any fault source is active.
func (f *FaultConfig) Enabled() bool {
	return f != nil && (f.ECRevocation.Enabled() || f.ICCrash.Enabled() || f.TransferStalls.Enabled())
}

func (f FaultConfig) withDefaults() FaultConfig {
	if f.MaxRetries == 0 {
		f.MaxRetries = 2
	}
	if f.MaxRetries < 0 {
		f.MaxRetries = 0
	}
	if f.RetryBackoff == 0 {
		f.RetryBackoff = 30
	}
	return f
}

// Validate rejects inconsistent fault configurations.
func (f FaultConfig) Validate() error {
	if err := f.ECRevocation.Validate(); err != nil {
		return fmt.Errorf("ECRevocation: %w", err)
	}
	if err := f.ICCrash.Validate(); err != nil {
		return fmt.Errorf("ICCrash: %w", err)
	}
	if f.ICCrash.Enabled() && f.ICCrash.Permanent() {
		return fmt.Errorf("ICCrash: MTTR %v must be positive — the IC is the fallback of last resort and cannot lose machines permanently", f.ICCrash.MTTR)
	}
	if err := f.TransferStalls.Validate(); err != nil {
		return fmt.Errorf("TransferStalls: %w", err)
	}
	if f.RetryBackoff < 0 {
		return fmt.Errorf("RetryBackoff %v must not be negative", f.RetryBackoff)
	}
	return nil
}

// recoveryPhase records where in the EC pipeline the fault hit a job, which
// decides what a retry must redo.
type recoveryPhase uint8

const (
	phaseUpload   recoveryPhase = iota // input never fully landed: full re-burst
	phaseCompute                       // input is on the EC: recompute + download
	phaseDownload                      // output exists remotely: redownload only
)

// buildFaults arms the injectors and recovery hooks. Fork order is fixed —
// IC injector, EC injector, upload stall RNGs (one per queue), download
// stall RNG — so fault schedules are stable across configurations.
func (e *Engine) buildFaults() {
	f := e.cfg.Faults
	if !f.Enabled() {
		return
	}
	rng := stats.NewRNG(f.Seed + 11)
	icRNG, ecRNG := rng.Fork(), rng.Fork()
	if f.ICCrash.Enabled() {
		e.icFaults = cluster.NewFaultInjector(e.eng, e.ic, f.ICCrash, icRNG)
		e.icFaults.OnFail = e.onICFail
		e.icFaults.OnRestore = func(at float64, m *cluster.Machine) {
			if e.wants(trace.MachineRestored) {
				e.tracer.Emit(trace.Event{Type: trace.MachineRestored, T: at, Cluster: "ic", Machine: m.ID})
			}
		}
	}
	if f.ECRevocation.Enabled() {
		e.ecFaults = cluster.NewFaultInjector(e.eng, e.ec, f.ECRevocation, ecRNG)
		e.ecFaults.OnFail = e.onECFail
		e.ecFaults.OnRestore = func(at float64, m *cluster.Machine) {
			if e.wants(trace.MachineRestored) {
				e.tracer.Emit(trace.Event{Type: trace.MachineRestored, T: at, Cluster: "ec", Machine: m.ID})
			}
		}
	}
	if f.TransferStalls.Enabled() {
		p := e.sites[0]
		for _, q := range p.upQ.Queues() {
			q.EnableStalls(f.TransferStalls, rng.Fork())
			q.OnStall = e.onTransferStall(p.upName, phaseUpload)
			q.OnAbort = e.onTransferAbort(p.upName, phaseUpload)
		}
		p.downQ.EnableStalls(f.TransferStalls, rng.Fork())
		p.downQ.OnStall = e.onTransferStall(p.downName, phaseDownload)
		p.downQ.OnAbort = e.onTransferAbort(p.downName, phaseDownload)
	}
}

// onICFail handles an internal machine crash: the aborted task (if any) is
// resubmitted immediately — the input is local, no admission rule applies,
// and no retry budget is consumed.
func (e *Engine) onICFail(at float64, m *cluster.Machine, aborted *cluster.Task, permanent bool) {
	js := e.abortedState(aborted)
	if js != nil && e.wants(trace.ComputeEnd) {
		// Close the interval the abort cut short; the machine keeps the
		// busy time, so the audit's busy integral matches the engine's.
		e.tracer.Emit(trace.Event{Type: trace.ComputeEnd, T: at, Cluster: "ic", Machine: m.ID, JobID: js.j.ID})
	}
	if e.wants(trace.MachineFailed) {
		e.tracer.Emit(trace.Event{Type: trace.MachineFailed, T: at, Cluster: "ic", Machine: m.ID, Fatal: permanent})
	}
	if js == nil || js.done {
		return
	}
	js.icTask = nil
	if e.wants(trace.JobRetried) {
		e.tracer.Emit(trace.Event{
			Type: trace.JobRetried, T: at,
			JobID: js.j.ID, Seq: js.seq, From: "IC", To: "IC",
		})
	}
	e.retries++
	e.submitIC(js)
}

// onECFail handles an EC machine loss (crash or revocation): the aborted
// task's job enters recovery, and if the fleet is gone every queued EC task
// is withdrawn and recovered too.
func (e *Engine) onECFail(at float64, m *cluster.Machine, aborted *cluster.Task, permanent bool) {
	js := e.abortedState(aborted)
	if js != nil && e.wants(trace.ComputeEnd) {
		e.tracer.Emit(trace.Event{Type: trace.ComputeEnd, T: at, Cluster: "ec", Machine: m.ID, JobID: js.j.ID})
	}
	if e.wants(trace.MachineFailed) {
		e.tracer.Emit(trace.Event{Type: trace.MachineFailed, T: at, Cluster: "ec", Machine: m.ID, Fatal: permanent})
	}
	if permanent {
		// A revoked machine leaves the rental clock; the provider bills the
		// started interval regardless (BillSpan rounds the cut-short span up).
		e.rentalEnded(e.sites[0], m, at)
	}
	if js != nil {
		e.recoverECJob(js, at, phaseCompute)
	}
	if e.ec.Size() == 0 {
		// 100% revocation: nothing will ever drain the queue. Pull every
		// waiting task out and run each through recovery (→ IC fallback).
		for _, t := range e.ec.QueuedTasks() {
			if !e.ec.Withdraw(t) {
				continue
			}
			if qjs := e.stateFor(t.Job.ID); qjs != nil {
				e.recoverECJob(qjs, at, phaseCompute)
			}
		}
	}
}

// abortedState resolves the job a killed task was carrying.
func (e *Engine) abortedState(t *cluster.Task) *jobState {
	if t == nil || t.Job == nil {
		return nil
	}
	return e.stateFor(t.Job.ID)
}

// onTransferStall emits the stall event; the job is not disturbed yet — the
// transfer may still be racing the timeout only in the sense that the abort
// is pending.
func (e *Engine) onTransferStall(link string, _ recoveryPhase) func(at float64, it *netsim.QueueItem) {
	return func(at float64, it *netsim.QueueItem) {
		e.stalls++
		if !e.wants(trace.TransferStalled) {
			return
		}
		if js, ok := it.Meta.(*jobState); ok {
			e.tracer.Emit(trace.Event{
				Type: trace.TransferStalled, T: at,
				JobID: js.j.ID, Seq: js.seq, Link: link, Bytes: it.Bytes,
			})
		}
	}
}

// onTransferAbort kills the attempt and routes the job into recovery.
func (e *Engine) onTransferAbort(link string, phase recoveryPhase) func(at float64, it *netsim.QueueItem) {
	return func(at float64, it *netsim.QueueItem) {
		e.aborts++
		js, ok := it.Meta.(*jobState)
		if !ok || js == nil {
			return
		}
		if e.wants(trace.TransferAborted) {
			e.tracer.Emit(trace.Event{
				Type: trace.TransferAborted, T: at,
				JobID: js.j.ID, Seq: js.seq, Link: link, Bytes: it.Bytes,
			})
		}
		if phase == phaseUpload {
			js.uploadItem = nil
		} else {
			js.downloading = false
		}
		e.recoverECJob(js, at, phase)
	}
}

// recoverECJob is the entry to the recovery state machine: consume one
// retry, then either schedule a backed-off re-burst or fall back to the IC.
func (e *Engine) recoverECJob(js *jobState, at float64, phase recoveryPhase) {
	if js == nil || js.done {
		return
	}
	f := e.cfg.Faults
	js.attempts++
	if js.attempts > f.MaxRetries || e.sites[js.site].cluster.Size() == 0 {
		e.fallBack(js, at)
		return
	}
	delay := f.RetryBackoff * math.Pow(2, float64(js.attempts-1))
	e.eng.CallAfter(delay, func(now float64, _ any) { e.retryFire(now, js, phase) }, nil)
}

// retryFire re-admits the job when the slack rule still holds, mirroring
// the idle-pull check: the round trip through the job's site under current
// predictions must fit inside the IC's drain horizon. Downloads skip the
// check — the compute is already spent, redownloading is always cheaper
// than recomputing.
func (e *Engine) retryFire(now float64, js *jobState, phase recoveryPhase) {
	if js.done {
		return
	}
	s := e.sites[js.site]
	if s.cluster.Size() == 0 {
		e.fallBack(js, now)
		return
	}
	if phase == phaseDownload {
		if e.wants(trace.JobRetried) {
			e.tracer.Emit(trace.Event{
				Type: trace.JobRetried, T: now,
				JobID: js.j.ID, Seq: js.seq, From: "EC", To: "EC",
				Attempt: js.attempts,
			})
		}
		e.retries++
		e.submitDownload(js, now)
		return
	}

	ss, _, _ := e.siteState(s)
	est := e.estimateJob(js.j)
	tec := est/ss.Speed + float64(js.j.OutputSize)/ss.PredictDownloadBW(now)
	if phase == phaseUpload {
		tec += (ss.UploadBacklog + float64(js.j.InputSize)) / ss.PredictUploadBW(now)
	}
	slack := e.ic.BacklogStdSeconds()/(float64(e.ic.Size())*machineSpeed) - e.cfg.SchedConfig.SlackMargin
	if tec > slack {
		e.fallBack(js, now)
		return
	}
	if e.wants(trace.JobRetried) {
		e.tracer.Emit(trace.Event{
			Type: trace.JobRetried, T: now,
			JobID: js.j.ID, Seq: js.seq, From: "EC", To: "EC",
			EstProc: est, EstEC: tec, Threshold: slack, Gated: true,
			Attempt: js.attempts,
		})
	}
	e.retries++
	if phase == phaseUpload {
		e.submitUpload(js)
	} else {
		e.submitEC(js)
	}
}

// fallBack abandons the EC: the job runs on the internal cloud, where the
// input is always available. This is the no-job-lost guarantee.
func (e *Engine) fallBack(js *jobState, at float64) {
	if js.done {
		return
	}
	js.place = sched.PlaceIC
	js.uploadItem = nil
	js.downloading = false
	if e.wants(trace.JobFellBack) {
		e.tracer.Emit(trace.Event{
			Type: trace.JobFellBack, T: at,
			JobID: js.j.ID, Seq: js.seq, From: "EC", To: "IC",
			Attempt: js.attempts,
		})
	}
	e.fallbks++
	e.submitIC(js)
}
