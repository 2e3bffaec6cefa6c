package sweep

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
)

// ManifestEntry is one manifest row, a completed cell. It is keyed by its
// configuration fingerprint so resume survives grid edits: cells whose
// configuration is unchanged are recognized wherever they moved in the
// expansion order.
type ManifestEntry struct {
	FP      string  `json:"fp"`
	Metrics Metrics `json:"metrics"`
}

// ReadManifest reads manifest rows from r in file order and hands each one
// to fn. A malformed line or one without a fingerprint is skipped: it is
// the torn tail of a crashed append (or manual editing), everything before
// it is trustworthy, and its cell simply re-runs. Lines are capped at 1 MB;
// a longer one fails the read with bufio.ErrTooLong.
func ReadManifest(r io.Reader, fn func(ManifestEntry)) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		var e ManifestEntry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil || e.FP == "" {
			continue
		}
		fn(e)
	}
	return sc.Err()
}

// Manifest is the crash-safe resume journal of a sweep: an append-only
// JSONL file with one entry per completed unique cell. Each entry is
// written with a single Write call the moment its cell completes — in
// completion order, deliberately ahead of the ordered result stream — so a
// killed sweep resumes from its true frontier. Loading tolerates a torn
// final line (the crash case) by ignoring it.
type Manifest struct {
	mu   sync.Mutex
	f    *os.File
	have map[string]Metrics
}

// OpenManifest opens (or creates) the manifest at path and loads every
// complete entry already recorded.
func OpenManifest(path string) (*Manifest, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("sweep: open manifest: %w", err)
	}
	m := &Manifest{f: f, have: make(map[string]Metrics)}
	if err := ReadManifest(f, func(e ManifestEntry) { m.have[e.FP] = e.Metrics }); err != nil {
		f.Close()
		return nil, fmt.Errorf("sweep: read manifest: %w", err)
	}
	// Heal a torn tail: if the file does not end in a newline, the next
	// append would concatenate onto the torn line and be sacrificed with it
	// on the following load. Terminating the tail now keeps future appends
	// intact.
	if st, err := f.Stat(); err == nil && st.Size() > 0 {
		buf := make([]byte, 1)
		if _, err := f.ReadAt(buf, st.Size()-1); err == nil && buf[0] != '\n' {
			if _, err := f.Write([]byte{'\n'}); err != nil {
				f.Close()
				return nil, fmt.Errorf("sweep: heal manifest tail: %w", err)
			}
		}
	}
	return m, nil
}

// Len returns the number of completed cells on record.
func (m *Manifest) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.have)
}

// Lookup returns the recorded metrics for the cell's fingerprint.
func (m *Manifest) Lookup(c Cell) (Metrics, bool) {
	if c.Fingerprint == "" {
		return Metrics{}, false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	v, ok := m.have[c.Fingerprint]
	return v, ok
}

// Append journals one completed cell. The line is marshaled first and
// written with one Write call, so a crash can only tear the final line.
func (m *Manifest) Append(c Cell, v Metrics) error {
	if c.Fingerprint == "" {
		return nil
	}
	line, err := json.Marshal(ManifestEntry{FP: c.Fingerprint, Metrics: v})
	if err != nil {
		return fmt.Errorf("sweep: marshal manifest entry: %w", err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.have[c.Fingerprint]; ok {
		return nil
	}
	if _, err := m.f.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("sweep: append manifest: %w", err)
	}
	m.have[c.Fingerprint] = v
	return nil
}

// Close releases the underlying file.
func (m *Manifest) Close() error { return m.f.Close() }

// ResumeMismatchError reports a resume manifest whose records come from the
// same grid priced differently: a recorded fingerprint and a planned one
// are identical except for the pricing (|cost=) suffix. Resuming across
// that boundary would silently re-execute every cell (the repriced
// fingerprints never match the old records) while leaving the stale rows
// mixed into the manifest, so the sweep refuses and names both forms.
type ResumeMismatchError struct {
	RecordedFP string // the fingerprint on record in the manifest
	PlannedFP  string // the planned fingerprint it shadows
}

// Error renders the conventional sweep-prefixed message naming both
// fingerprint forms.
func (e *ResumeMismatchError) Error() string {
	return fmt.Sprintf("sweep: resume manifest was written under a different pricing model: recorded cell %q and planned cell %q differ only by the |cost= suffix; use a fresh manifest path for the repriced spec", e.RecordedFP, e.PlannedFP)
}

// CheckPlanned guards a resume against the priced/unpriced fingerprint
// trap: Options.Fingerprint appends the |cost= suffix only when pricing is
// armed, so a manifest written by an unpriced run of a now-priced spec (or
// the reverse) shares no fingerprints with the plan and would silently
// re-execute everything with stale rows left behind. A recorded fingerprint
// that is not planned, but whose cost-stripped form matches a planned cell
// that the manifest does not satisfy, is such a shadow; CheckPlanned
// returns a *ResumeMismatchError naming both forms. Legitimately mixed
// grids (a Costs axis spanning free and priced sets) plan both forms
// directly and pass.
func (m *Manifest) CheckPlanned(cells []Cell) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	planned := make(map[string]bool, len(cells))
	for _, c := range cells {
		if c.Fingerprint != "" {
			planned[c.Fingerprint] = true
		}
	}
	// Cost-stripped forms of the planned cells the manifest cannot serve.
	unsatisfied := make(map[string]string)
	for fp := range planned {
		if _, ok := m.have[fp]; !ok {
			unsatisfied[stripCostFP(fp)] = fp
		}
	}
	for fp := range m.have {
		if planned[fp] {
			continue
		}
		if shadowed, ok := unsatisfied[stripCostFP(fp)]; ok && shadowed != fp {
			return &ResumeMismatchError{RecordedFP: fp, PlannedFP: shadowed}
		}
	}
	return nil
}

// stripCostFP removes the cost= segment from a pipe-delimited
// configuration fingerprint, yielding the form an unpriced run of the same
// configuration would have produced.
func stripCostFP(fp string) string {
	parts := strings.Split(fp, "|")
	rest := parts[:0]
	for _, p := range parts {
		if strings.HasPrefix(p, "cost=") {
			continue
		}
		rest = append(rest, p)
	}
	return strings.Join(rest, "|")
}
