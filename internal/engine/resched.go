package engine

import (
	"cloudburst/internal/sched"
	"cloudburst/internal/trace"
)

// reschedule implements the periodic strategies sketched in Sec. IV-D for
// mitigating estimation errors:
//
//  1. Steal-back: when the IC has free machines, it reclaims jobs still
//     waiting in the upload queue (their transfer has not started, so
//     re-running them locally is free) and executes them internally.
//  2. Idle pull: when the upload path is completely idle and the IC still
//     has queued work, the last queued IC job that satisfies the slack
//     criterion is pulled out and bursted.
func (e *Engine) reschedule() {
	e.stealBack()
	e.idlePull()
}

func (e *Engine) stealBack() {
	for e.ic.QueueLength() == 0 && e.ic.RunningTasks() < e.ic.Size() {
		it := e.sites[0].upQ.StealWaiting()
		if it == nil {
			return
		}
		js := it.Meta.(*jobState)
		js.uploadItem = nil
		js.place = sched.PlaceIC
		if e.wants(trace.Rescheduled) {
			e.tracer.Emit(trace.Event{
				Type: trace.Rescheduled, T: e.eng.Now(),
				JobID: js.j.ID, Seq: js.seq, From: "EC", To: "IC",
			})
		}
		e.submitIC(js)
	}
}

func (e *Engine) idlePull() {
	p := e.sites[0]
	if p.upQ.Busy() || p.upQ.Backlog() > 0 || e.ec.Size() == 0 {
		return
	}
	queued := e.ic.QueuedTasks()
	if len(queued) == 0 {
		return
	}
	ps, _, _ := e.siteState(p)
	now := e.eng.Now()
	icBacklog, icMachines := e.ic.BacklogStdSeconds(), e.ic.Size()
	// Scan from the tail: the last job has the most slack.
	for i := len(queued) - 1; i >= 0; i-- {
		t := queued[i]
		js := e.stateFor(t.Job.ID)
		if js == nil || js.done {
			continue
		}
		est := e.estimateJob(t.Job)
		// EC round trip under current predictions, no queueing (the upload
		// path is idle by precondition).
		tec := float64(t.Job.InputSize)/ps.PredictUploadBW(now) +
			est/ps.Speed +
			float64(t.Job.OutputSize)/ps.PredictDownloadBW(now)
		// Slack: everything else still owed to the IC, spread over its
		// machines — if the round trip fits inside that, the pulled job is
		// off the critical path.
		slack := (icBacklog - est) / (float64(icMachines) * machineSpeed)
		if tec <= slack {
			// The budget gate applies to idle pulls like any other burst: a
			// pull whose prepaid charge overruns the remaining budget stays
			// on the IC, but smaller jobs deeper in the scan may still fit.
			if e.meter != nil && e.meter.Charge(est) > e.meter.Remaining() {
				continue
			}
			if e.ic.Withdraw(t) {
				js.icTask = nil
				js.place = sched.PlaceEC
				if e.wants(trace.Rescheduled) {
					e.tracer.Emit(trace.Event{
						Type: trace.Rescheduled, T: e.eng.Now(),
						JobID: js.j.ID, Seq: js.seq, From: "IC", To: "EC",
						EstProc: est, EstEC: tec, Threshold: slack, Gated: true,
					})
				}
				e.commitBurst(js, est, e.eng.Now())
				e.submitUpload(js)
			}
			return
		}
	}
}
