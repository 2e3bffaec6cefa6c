package cloudburst

import (
	"fmt"
	"math"

	"cloudburst/internal/invariant"
)

// OptionError reports a single Options field whose value lies outside its
// meaningful domain. Every validation failure returned by Run, RunContext,
// Compare and CompareContext unwraps to this type, so callers can branch on
// the offending field instead of parsing message strings:
//
//	if _, err := cloudburst.Run(o); err != nil {
//		var oe *cloudburst.OptionError
//		if errors.As(err, &oe) {
//			log.Printf("bad option %s (value %v): %s", oe.Field, oe.Value, oe.Reason)
//		}
//	}
type OptionError struct {
	Field  string // Options field path, e.g. "ECMachines" or "ExtraECSites[1].JitterCV"
	Value  any    // the rejected value
	Reason string // why the value was rejected
}

// Error renders the conventional cloudburst-prefixed message, e.g.
// "cloudburst: Batches -1 must not be negative".
func (e *OptionError) Error() string {
	return fmt.Sprintf("cloudburst: %s %v %s", e.Field, e.Value, e.Reason)
}

// optErr builds an *OptionError; reason may be a printf format over args.
func optErr(field string, value any, reason string, args ...any) *OptionError {
	if len(args) > 0 {
		reason = fmt.Sprintf(reason, args...)
	}
	return &OptionError{Field: field, Value: value, Reason: reason}
}

// floatField is one float option for checkFinite: its name under the
// caller's prefix, and its value.
type floatField struct {
	name string
	v    float64
}

// checkFinite rejects the first NaN or infinite value in fs, naming it
// prefix+name. No float option has a meaning at either: the sign checks
// let NaN through, and unchecked, both hang the workload generator or crash
// the simulation. Where a field can mean "unlimited", that setting is 0.
func checkFinite(prefix string, fs []floatField) error {
	for _, f := range fs {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return optErr(prefix+f.name, f.v, "must be finite")
		}
	}
	return nil
}

// CostError reports a failure of the cost-analysis layer — the burst
// advisor or the Pareto tooling — such as an unreadable, malformed or empty
// sweep job-history manifest. It wraps the underlying cause:
//
//	if _, err := cloudburst.Advise(path); err != nil {
//		var ce *cloudburst.CostError
//		if errors.As(err, &ce) {
//			log.Printf("cost analysis failed on %s: %s", ce.Path, ce.Reason)
//		}
//	}
type CostError struct {
	Path   string // the manifest or artifact involved, if any
	Reason string
	Err    error // underlying cause, or nil
}

// Error renders the conventional cloudburst-prefixed message.
func (e *CostError) Error() string {
	if e.Path == "" {
		return fmt.Sprintf("cloudburst: cost: %s", e.Reason)
	}
	return fmt.Sprintf("cloudburst: cost: %s: %s", e.Path, e.Reason)
}

// Unwrap exposes the underlying cause to errors.Is/As chains.
func (e *CostError) Unwrap() error { return e.Err }

// Violation is one structural invariant the runtime checker found broken
// during a verified run (Options.Verify).
type Violation struct {
	Invariant string  // short invariant name, e.g. "bytes-conserved"
	T         float64 // virtual time of the offending event
	JobID     int     // offending job, or -1
	Detail    string
}

// String renders the violation on one line.
func (v Violation) String() string {
	return fmt.Sprintf("%s at t=%.3f job %d: %s", v.Invariant, v.T, v.JobID, v.Detail)
}

// VerifyError is returned by Run and RunContext when Options.Verify is set
// and the runtime invariant checker detected violations. Violations holds
// the first detections in order (capped); Total counts every violation,
// including those past the cap.
type VerifyError struct {
	Violations []Violation
	Total      int
}

func toViolations(vs []invariant.Violation) []Violation {
	out := make([]Violation, len(vs))
	for i, v := range vs {
		out[i] = Violation{Invariant: v.Invariant, T: v.T, JobID: v.JobID, Detail: v.Detail}
	}
	return out
}

// Error summarizes the first violation and the total count.
func (e *VerifyError) Error() string {
	if len(e.Violations) == 0 {
		return "cloudburst: verification failed"
	}
	return fmt.Sprintf("cloudburst: %d invariant violation(s), first: %s",
		e.Total, e.Violations[0])
}
