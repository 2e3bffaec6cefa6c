package sim

// NewReference returns an engine in reference mode: the same event
// semantics as NewEngine with every performance structure replaced by its
// obviously-correct naive equivalent.
//
//   - The pending set is an unordered slice; the next event is found by a
//     linear scan for the minimum (at, seq) instead of a binary heap.
//   - Every event gets a freshly allocated node; nothing is ever recycled
//     through the free list.
//
// Because events are totally ordered by the unique (at, seq) key, both
// modes fire the exact same events in the exact same order, so a model
// driven by a reference engine produces a bit-identical trajectory. The
// differential harness in internal/refsim leans on this to cross-check the
// optimized structures (heap, free list) against straight-line code.
func NewReference() *Engine {
	return &Engine{reference: true}
}

// Reference reports whether the engine runs in reference mode.
func (e *Engine) Reference() bool { return e.reference }

// minIndex returns the position of the earliest event by (at, seq). Only
// used in reference mode; callers guarantee a non-empty queue.
func (e *Engine) minIndex() int {
	best := 0
	for i := 1; i < len(e.events); i++ {
		if e.less(i, best) {
			best = i
		}
	}
	return best
}
