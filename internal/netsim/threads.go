package netsim

// ThreadModel captures how many parallel TCP streams a transfer needs to
// fill the pipe, and the point at which extra threads start to hurt. A
// single stream is window/RTT-limited to PerThread bytes/sec; n streams
// deliver n·PerThread scaled by a linear contention penalty:
//
//	limit(n) = n · PerThread · max(0, 1 − Penalty·(n−1))
//
// which rises, peaks near (1+1/Penalty)/2, and then falls — the behaviour
// behind the paper's Fig. 4(b), where the tuned thread count tracks the
// offered bandwidth through the day.
type ThreadModel struct {
	PerThread float64 // bytes/sec a single stream can carry
	Penalty   float64 // per-extra-thread contention loss, e.g. 0.02
	MaxThread int     // hard cap on threads per transfer
}

// DefaultThreadModel mirrors the experimental setup: one stream carries
// ~40 kB/s (64 kB window, ~1.6 s effective RTT on a loaded path), with a 2%
// contention penalty and at most 24 streams.
func DefaultThreadModel() ThreadModel {
	return ThreadModel{PerThread: 40 * 1024, Penalty: 0.02, MaxThread: 24}
}

// Limit returns the maximum throughput n threads can carry regardless of
// link capacity.
func (tm ThreadModel) Limit(n int) float64 {
	if n <= 0 {
		return 0
	}
	if tm.MaxThread > 0 && n > tm.MaxThread {
		n = tm.MaxThread
	}
	eff := 1 - tm.Penalty*float64(n-1)
	if eff < 0 {
		eff = 0
	}
	return float64(n) * tm.PerThread * eff
}

// Tuner converges on the thread count that maximizes measured throughput,
// the way the prototype "varies the number of download/upload threads and
// converges upon the optimum number for that time-period". It keeps a
// smoothed throughput estimate per thread count and moves to the best of
// the current count's neighbours, treating unexplored neighbours
// optimistically (the upper one slightly more so). Pure hill climbing
// fails here: when a transfer is share-limited by competing traffic its
// achieved bandwidth carries no gradient, and a noise-driven walk can
// strand the tuner at one thread for thousands of seconds. Per-count
// memory recovers immediately once the signal returns. Each link direction
// needs its own tuner — upload and download measurements are not
// comparable.
type Tuner struct {
	model   ThreadModel
	current int
	avg     map[int]*ewma
	record  bool // RecordHistory armed the history
	history []TunerSample
}

// ewma is a tiny local average with a last-visit timestamp so stale
// estimates can be retired (conditions change with the time of day).
type ewma struct {
	v     float64
	n     int
	lastT float64
}

func (e *ewma) observe(now, x float64) {
	if e.n == 0 {
		e.v = x
	} else {
		e.v = 0.4*x + 0.6*e.v
	}
	e.n++
	e.lastT = now
}

// tunerStaleAfter is how long a per-count estimate stays trustworthy; past
// it the count is treated as unexplored again.
const tunerStaleAfter = 1800.0

// TunerSample records one tuning observation for diagnostics (Fig. 4b).
type TunerSample struct {
	T       float64
	Threads int
	BW      float64
}

// NewTuner starts a tuner at the given initial thread count.
func NewTuner(model ThreadModel, initial int) *Tuner {
	if initial < 1 {
		initial = 1
	}
	if model.MaxThread > 0 && initial > model.MaxThread {
		initial = model.MaxThread
	}
	return &Tuner{model: model, current: initial, avg: make(map[int]*ewma)}
}

// Threads returns the thread count to use for the next transfer.
func (t *Tuner) Threads() int { return t.current }

// Observe reports the bandwidth achieved by the transfer that used the
// current thread count, completing at virtual time now, and moves the
// tuner to the most promising neighbouring count.
func (t *Tuner) Observe(now, achievedBW float64) {
	if t.record {
		t.history = append(t.history, TunerSample{T: now, Threads: t.current, BW: achievedBW})
	}
	cur := t.avg[t.current]
	if cur == nil {
		cur = &ewma{}
		t.avg[t.current] = cur
	}
	cur.observe(now, achievedBW)

	max := t.model.MaxThread
	if max <= 0 {
		max = 64
	}
	bestN, bestV := t.current, cur.v
	consider := func(n int, optimism float64) {
		if n < 1 || n > max {
			return
		}
		v := cur.v * optimism // unexplored or stale: assume slightly better
		if a, ok := t.avg[n]; ok && a.n > 0 && now-a.lastT < tunerStaleAfter {
			v = a.v
		}
		if v > bestV {
			bestN, bestV = n, v
		}
	}
	consider(t.current-1, 1.02)
	consider(t.current+1, 1.05) // bias exploration upward: threads are cheap
	t.current = bestN
}

// RecordHistory makes the tuner keep every later observation for History.
// A tuner keeps none by default: an engine's tuners observe every transfer
// and probe, and in a serve the history would grow with served time while
// nothing reads it.
func (t *Tuner) RecordHistory() { t.record = true }

// History returns the tuning samples observed since RecordHistory.
func (t *Tuner) History() []TunerSample { return t.history }
