package engine

import (
	"runtime"
	"sync"
	"sync/atomic"

	"cloudburst/internal/qrsm"
	"cloudburst/internal/sim"
	"cloudburst/internal/stats"
	"cloudburst/internal/workload"
)

// Run arenas. A sweep evaluates thousands of (scheduler, bucket, seed)
// cells, and every cell used to rebuild the same allocation backbone from
// scratch: the event heap, the dense job-state tables, one jobState per
// queue slot, and — dominating everything — a freshly bootstrapped QRSM
// refit over the same 200 production samples. An arena keeps those
// structures alive between runs:
//
//   - the sim.Engine is Reset (events truncated, freed nodes returned to
//     its internal pool) and reused, so steady-state scheduling allocates
//     nothing;
//   - the states and estCache tables are scrubbed, and the next run grows
//     them back into the retained capacity as IDs arrive;
//   - jobStates come from a paged slab whose cursor rewinds per run
//     (pages never move, so the pipeline's long-lived pointers stay
//     valid; every slot is fully overwritten at placement time, so stale
//     contents never leak into a new run);
//   - bootstrapped estimators are cloned from a shared materialized
//     prototype instead of re-observing and re-factorizing the bootstrap
//     set;
//   - the network root stream and the two link streams are reseeded in
//     place (stats.RNG.Reset overwrites the whole generator state, so
//     nothing of an earlier run's draws carries over).
//
// Safety: arenas are parked for reuse only by runs that completed
// cleanly, after every component is scrubbed (see Engine.release). Error
// paths abandon the arena to the collector — a half-driven event heap or a
// partially filled state table is never reused. Reference-mode runs bypass
// arenas entirely: the differential harness exercises the naive structures
// with no reuse, which is exactly what makes it able to vouch for this
// fast path. The sla.Set is deliberately NOT pooled — it escapes to the
// caller through Result.Records and may be read long after the run.
//
// What survives in a parked arena between runs is capacity only, never
// values: the layered defenses behind that claim (the sla.Set seq-dedup
// panic, the sim clock monotonicity panic, and the trace auditor's
// independent metric recomputation) are demonstrated in arena_test.go.
type arena struct {
	eng      *sim.Engine
	states   []*jobState // scrubbed at release; beyond len(states) the backing array is zero
	estCache []estEntry  // scrubbed at release (stale (job, version) pairs would collide)

	// jobState slab, page-granular so pointers into it survive growth.
	pages   [][]jobState
	pageIdx int
	slot    int

	est *qrsm.Estimator // clone target for the bootstrap prototype

	// Network streams, reseeded by build on every run.
	netRNG, upRNG, downRNG stats.RNG
}

const jobStatePageSize = 256

// arenaPool parks released arenas for the next run: a mutex-guarded
// free list, last in first out, so the arena a run releases is the one the
// next run gets, with the estimator windows, state tables and slab pages
// the last run grew. It keeps at most GOMAXPROCS arenas, one per sweep
// worker that can run at once; a release past that leaves the arena to
// the collector. (A sync.Pool empties itself across collections and parks
// each Put in the releasing P's private slot, so runs often missed the
// arena just released and regrew it from nothing.)
var arenaPool struct {
	mu   sync.Mutex
	free []*arena
}

// arenaPoolingOff disables reuse when set (zero value: pooling on).
var arenaPoolingOff atomic.Bool

// SetArenaPooling toggles arena reuse and the bootstrap prototype cache,
// returning the previous setting. With pooling off every run rebuilds its
// full allocation backbone — the no-reuse baseline the benchmarks compare
// against. Toggle only while no runs are in flight.
func SetArenaPooling(on bool) (prev bool) {
	return !arenaPoolingOff.Swap(!on)
}

// acquireArena hands out a clean arena: a scrubbed pooled one, or a fresh
// zero arena when pooling is off (so the no-reuse baseline still walks the
// same code path, minus all reuse).
func acquireArena() *arena {
	if arenaPoolingOff.Load() {
		return new(arena)
	}
	arenaPool.mu.Lock()
	defer arenaPool.mu.Unlock()
	n := len(arenaPool.free)
	if n == 0 {
		return new(arena)
	}
	a := arenaPool.free[n-1]
	arenaPool.free[n-1] = nil
	arenaPool.free = arenaPool.free[:n-1]
	return a
}

// parkArena puts a scrubbed arena on the free list, unless the list
// already holds GOMAXPROCS arenas.
func parkArena(a *arena) {
	arenaPool.mu.Lock()
	defer arenaPool.mu.Unlock()
	if len(arenaPool.free) < runtime.GOMAXPROCS(0) {
		arenaPool.free = append(arenaPool.free, a)
	}
}

// engine returns the arena's reusable event core, creating it on first use.
func (a *arena) engine() *sim.Engine {
	if a.eng == nil {
		a.eng = sim.NewEngine()
	}
	return a.eng
}

// newJobState hands out the next slab slot. The caller fully overwrites
// the slot (*js = jobState{...}), so rewinding the cursor at release needs
// no zeroing. Completed runs leave uploadItem/icTask nil in every slot, so
// a parked arena pins no netsim or cluster graphs.
func (a *arena) newJobState() *jobState {
	if a.pageIdx == len(a.pages) {
		a.pages = append(a.pages, make([]jobState, jobStatePageSize))
	}
	js := &a.pages[a.pageIdx][a.slot]
	a.slot++
	if a.slot == jobStatePageSize {
		a.pageIdx++
		a.slot = 0
	}
	return js
}

// newJobState allocates a pipeline slot: from the run's arena, or from the
// heap for arena-less engines (Serve, whose open-ended slot population
// would grow a slab without bound, and Reference mode).
func (e *Engine) newJobState() *jobState {
	if e.arena == nil {
		return new(jobState)
	}
	return e.arena.newJobState()
}

// netStreams returns the network root stream and the two link streams for
// build to seed: the arena's, or fresh ones for arena-less engines.
func (e *Engine) netStreams() (root, up, down *stats.RNG) {
	if e.arena == nil {
		return new(stats.RNG), new(stats.RNG), new(stats.RNG)
	}
	a := e.arena
	return &a.netRNG, &a.upRNG, &a.downRNG
}

// release scrubs the arena and parks it for the next run. Called only after
// a clean, fully-completed run; error paths keep the arena off the free
// list.
func (e *Engine) release() {
	a := e.arena
	if a == nil {
		return
	}
	e.arena = nil
	if arenaPoolingOff.Load() {
		return
	}
	a.eng.Reset()
	// Recapture the tables from the engine — setState/estimateJob may have
	// grown them past the arena's original slices — and scrub them.
	a.states = e.states
	clear(a.states)
	a.states = a.states[:0]
	a.estCache = e.estCache
	clear(a.estCache)
	a.estCache = a.estCache[:0]
	a.pageIdx, a.slot = 0, 0
	parkArena(a)
}

// bootProtos caches one materialized estimator prototype per bootstrap
// noise level: BootstrapSet is a pure function of (seed, n, noise) and the
// seed and size are fixed, so estimators bootstrapped at equal NoiseCV are
// interchangeable. Sweeps draw from a handful of levels, so the cache stays
// tiny; it is never evicted. Prototypes are read-only after insertion —
// every run gets its own deep clone.
var bootProtos sync.Map // NoiseCV float64 → *qrsm.Estimator

// buildEstimator constructs the run's processing-time oracle. The
// bootstrap dominates a short run's CPU (200 observations plus a full QR
// factorization before the first job arrives), and its result depends only
// on NoiseCV — so optimized runs clone a cached prototype instead. Cloning
// copies the exact post-Bootstrap state a fresh estimator would reach, so
// trajectories are bit-identical; the Reference mode and the no-reuse
// baseline keep paying the full bootstrap.
func (e *Engine) buildEstimator() *qrsm.Estimator {
	noiseCV := e.cfg.NoiseCV
	if e.cfg.Reference || arenaPoolingOff.Load() {
		est := qrsm.NewEstimator()
		fs, ys := workload.BootstrapSet(bootstrapSeed, bootstrapN, noiseCV)
		est.Bootstrap(fs, ys)
		return est
	}
	var proto *qrsm.Estimator
	if v, ok := bootProtos.Load(noiseCV); ok {
		proto = v.(*qrsm.Estimator)
	} else {
		proto = qrsm.NewEstimator()
		fs, ys := workload.BootstrapSet(bootstrapSeed, bootstrapN, noiseCV)
		proto.Bootstrap(fs, ys)
		proto.Prepare(qrsm.AllClasses) // pay the factorization once, not per clone
		// Settle the R² every run reports, or each clone computes it anew.
		proto.GlobalModel().SettledR2()
		if v, loaded := bootProtos.LoadOrStore(noiseCV, proto); loaded {
			proto = v.(*qrsm.Estimator)
		}
	}
	var dst *qrsm.Estimator
	if e.arena != nil {
		if e.arena.est == nil {
			e.arena.est = new(qrsm.Estimator)
		}
		dst = e.arena.est
	}
	return proto.CloneInto(dst)
}
