package netsim

import "fmt"

// Transfer-level fault injection: a transfer can stall — its flow freezes at
// zero rate (a hung TCP connection, a wedged gateway) — and, after a sender
// timeout, is aborted so the job above can recover. Stalls are drawn per
// transfer from a dedicated RNG, keeping fault schedules deterministic and
// independent of the jitter/outage streams.

// StallModel describes transfer stalls on one queue.
type StallModel struct {
	// MeanTimeBetween is the mean seconds from a transfer's start to its
	// stall (exponential); a transfer that completes first is unaffected.
	// <= 0 disables injection.
	MeanTimeBetween float64
	// Timeout is how long a stalled transfer hangs before the sender gives
	// up and aborts it.
	Timeout float64
}

// Enabled reports whether the model injects any stalls.
func (s StallModel) Enabled() bool { return s.MeanTimeBetween > 0 }

// Validate rejects physically meaningless parameters.
func (s StallModel) Validate() error {
	if s.MeanTimeBetween < 0 {
		return fmt.Errorf("stall MeanTimeBetween %v must not be negative", s.MeanTimeBetween)
	}
	if s.Enabled() && s.Timeout <= 0 {
		return fmt.Errorf("stall Timeout %v must be positive", s.Timeout)
	}
	return nil
}

// Stall freezes an in-flight transfer at zero rate: it stops consuming
// capacity (the remainder is redistributed to other transfers) and will
// never complete on its own. The caller is expected to Abort it later.
func (l *Link) Stall(tr *Transfer) {
	if tr.done || tr.stalled || tr.link != l {
		return
	}
	l.advance()
	tr.stalled = true
	tr.rate = 0
	l.reallocate()
}

// Abort removes an in-flight transfer without completing it; its onDone
// never fires. Freed capacity is redistributed immediately.
func (l *Link) Abort(tr *Transfer) {
	if tr.done || tr.link != l {
		return
	}
	l.advance()
	for i, a := range l.active {
		if a == tr {
			l.active = append(l.active[:i], l.active[i+1:]...)
			break
		}
	}
	tr.link = nil
	tr.rate = 0
	l.reallocate()
}
