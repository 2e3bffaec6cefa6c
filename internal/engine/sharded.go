package engine

import (
	"cloudburst/internal/job"
	"cloudburst/internal/sched"
	"cloudburst/internal/shard"
	"cloudburst/internal/trace"
	"cloudburst/internal/workload"
)

// onBatchSharded drives one batch through the shared-state placement path:
// snapshot → speculative scheduling, one shard after another → deterministic
// commit → re-place losers against a refreshed snapshot. After MaxRetries
// conflicted rounds the batch finishes with one serial round (conflict
// detection off), so every job is always placed.
func (e *Engine) onBatchSharded(b workload.Batch) {
	pending := b.Jobs
	for attempt := 1; len(pending) > 0; attempt++ {
		e.epoch++
		// Each round arms the batch fit pass the way onBatch does.
		if _, icOnly := e.sched.(sched.ICOnly); !icOnly {
			e.prepArmed, e.prepJobs = true, pending
		}
		before := e.alloc.Peek()
		st := e.state()
		nShards := e.coord.Count()
		detect := true
		if attempt > e.coord.MaxRetries()+1 {
			nShards, detect = 1, false
		}
		e.freeECBuf = e.ec.IdleActiveIDs(e.freeECBuf[:0])
		snap := &shard.Snapshot{
			State:  st,
			FreeEC: e.freeECBuf,
			Epoch:  e.epoch,
		}
		if e.meter != nil && e.meter.Budget() > 0 {
			snap.BudgetArmed = true
			snap.Charge = e.meter.Charge
			snap.Remaining = e.meter.Remaining()
		}

		// Re-entrants from a conflicted round are announced before their
		// new placement so the stream reads replay-forward.
		if attempt > 1 {
			parts := e.coord.Partitioner()
			for _, j := range pending {
				e.replacements++
				if e.wants(trace.PlacementRetried) {
					s := 0
					if nShards > 1 {
						s = parts.Shard(j.ID) % nShards
					}
					e.tracer.Emit(trace.Event{
						Type: trace.PlacementRetried, T: e.eng.Now(),
						JobID: j.ID, Seq: -1, Batch: b.Index,
						Shard: s + 1, Epoch: e.epoch, Attempt: attempt - 1,
					})
				}
			}
		}

		outcomes := e.coord.Round(pending, snap, nShards, detect, e.alloc)
		e.prepArmed, e.prepJobs = false, nil
		e.chunks += e.alloc.Peek() - before
		e.total += len(outcomes) - len(pending)

		var losers []*job.Job
		for _, o := range outcomes {
			if o.Won {
				e.processDecision(o.D, b.Index, o.Shard+1, e.epoch, o.Machine, attempt)
				continue
			}
			e.conflicts++
			if e.wants(trace.PlacementConflict) {
				e.tracer.Emit(trace.Event{
					Type: trace.PlacementConflict, T: e.eng.Now(),
					JobID: o.D.Job.ID, Seq: -1, Batch: b.Index,
					Where: o.D.Place.String(), Site: o.D.Site,
					Machine: o.Machine, Gated: o.Budget,
					EstProc: o.D.EstProcStd,
					Shard:   o.Shard + 1, Epoch: e.epoch, Attempt: attempt,
				})
			}
			losers = append(losers, o.D.Job)
		}
		if attempt > 1 {
			e.commitRetries++
		}

		// SIBS shards publish refreshed size-interval bounds per round, the
		// sharded analogue of the per-batch monolithic publish.
		e.setBounds(e.coord.Bounds())

		pending = losers
	}
}
