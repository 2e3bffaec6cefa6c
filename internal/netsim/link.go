package netsim

import (
	"fmt"
	"math"

	"cloudburst/internal/sim"
	"cloudburst/internal/stats"
)

// completionEpsilon treats a transfer as finished when fewer than this many
// bytes remain, absorbing float round-off.
const completionEpsilon = 1e-6

// Transfer is one in-flight payload on a Link.
type Transfer struct {
	Name    string
	Size    int64
	Threads int
	StartT  float64

	remaining   float64
	rate        float64
	done        bool
	stalled     bool
	onDone      func(at float64, tr *Transfer)
	link        *Link
	concSeconds float64 // ∫ (concurrent transfer count) dt while active
}

// Remaining returns the bytes left to move as of the current virtual time.
func (tr *Transfer) Remaining() float64 {
	if tr.link != nil && !tr.done {
		tr.link.advance() // fold in progress since the last event
	}
	return tr.remaining
}

// Done reports whether the transfer completed.
func (tr *Transfer) Done() bool { return tr.done }

// AchievedBW returns the mean bandwidth of a completed transfer given its
// completion time.
func (tr *Transfer) AchievedBW(completedAt float64) float64 {
	d := completedAt - tr.StartT
	if d <= 0 {
		return 0
	}
	return float64(tr.Size) / d
}

// MeanConcurrency returns the average number of transfers sharing the link
// while this one was active. The sender originates every transfer on its
// own uplink, so this is locally observable state.
func (tr *Transfer) MeanConcurrency(completedAt float64) float64 {
	d := completedAt - tr.StartT
	if d <= 0 {
		return 1
	}
	c := tr.concSeconds / d
	if c < 1 {
		return 1
	}
	return c
}

// PathBW estimates the total path capacity the transfer experienced:
// achieved bandwidth scaled by the mean concurrency. Feeding this (rather
// than the raw per-transfer rate) to the bandwidth predictor keeps the
// estimate meaningful when several queues share the pipe — otherwise a
// three-way split teaches the predictor one third of the truth and the
// scheduler stops bursting.
func (tr *Transfer) PathBW(completedAt float64) float64 {
	return tr.AchievedBW(completedAt) * tr.MeanConcurrency(completedAt)
}

// Link simulates a unidirectional network pipe whose capacity is the
// time-of-day profile modulated by sporadic lognormal jitter, resampled on a
// fixed period. Concurrent transfers share capacity by max-min fairness
// (water-filling), with each transfer additionally capped by what its thread
// count can carry.
type Link struct {
	Name string

	eng      *sim.Engine
	profile  *Profile
	jitterCV float64
	rng      *stats.RNG
	threads  ThreadModel

	jitter         float64
	resamplePeriod float64
	nextJitterAt   float64
	outage         *outageState // nil when no outage model configured
	active         []*Transfer
	changeTm       sim.Timer
	changeCb       sim.Callback // prebound state-change callback
	sortScratch    []*Transfer  // reused by waterFill
	lastAdvance    float64
	bytesServed    float64
}

// LinkConfig parameterizes NewLink.
type LinkConfig struct {
	Name           string
	Profile        *Profile
	JitterCV       float64 // coefficient of variation of the multiplicative jitter
	ResamplePeriod float64 // seconds between jitter resamples (default 60)
	Threads        ThreadModel
	Outages        *OutageModel // optional throttling/outage episodes
	// OnOutage fires on every outage episode transition with the actual
	// transition time and the new state (true = episode begins). Because
	// outage evaluation is lazy, the callback may run at a later link event
	// than the transition time it reports. Optional.
	OnOutage func(at float64, active bool)
}

// NewLink attaches a link to the engine. rng drives the jitter and must be
// dedicated to this link for reproducibility.
func NewLink(eng *sim.Engine, cfg LinkConfig, rng *stats.RNG) *Link {
	if cfg.Profile == nil {
		panic("netsim: link needs a profile")
	}
	if cfg.ResamplePeriod <= 0 {
		cfg.ResamplePeriod = 60
	}
	if cfg.Threads.PerThread <= 0 {
		cfg.Threads = DefaultThreadModel()
	}
	l := &Link{
		Name:           cfg.Name,
		eng:            eng,
		profile:        cfg.Profile,
		jitterCV:       cfg.JitterCV,
		rng:            rng,
		threads:        cfg.Threads,
		jitter:         1,
		resamplePeriod: cfg.ResamplePeriod,
		nextJitterAt:   eng.Now() + cfg.ResamplePeriod,
		lastAdvance:    eng.Now(),
	}
	l.changeCb = func(now float64, _ any) {
		l.changeTm = sim.Timer{}
		l.advance()
		l.reallocate()
	}
	if cfg.Outages != nil {
		if err := cfg.Outages.Validate(); err != nil {
			panic(err)
		}
		l.outage = newOutageState(*cfg.Outages, rng.Fork(), eng.Now())
		l.outage.onChange = cfg.OnOutage
	}
	l.resampleJitter()
	return l
}

// maybeResampleJitter redraws the jitter multiplier when its holding period
// has elapsed. Resampling is lazy and event-driven: it only happens at link
// state changes, so an idle link schedules no events and the simulation can
// drain.
func (l *Link) maybeResampleJitter() {
	now := l.eng.Now()
	if now < l.nextJitterAt {
		return
	}
	l.resampleJitter()
	l.nextJitterAt = now + l.resamplePeriod
}

func (l *Link) resampleJitter() {
	if l.jitterCV <= 0 {
		l.jitter = 1
		return
	}
	l.jitter = l.rng.LogNormalMeanCV(1, l.jitterCV)
}

// ThreadModel returns the link's thread model.
func (l *Link) ThreadModel() ThreadModel { return l.threads }

// Capacity returns the link's current total capacity in bytes/sec,
// including jitter and any active throttling episode.
func (l *Link) Capacity() float64 {
	c := l.profile.MeanAt(l.eng.Now()) * l.jitter
	if l.outage != nil {
		c *= l.outage.factor()
	}
	return c
}

// Start begins moving size bytes with the given thread count and invokes
// onDone (with the completion time) when the last byte lands. The callback
// may immediately start another transfer.
func (l *Link) Start(name string, size int64, threads int, onDone func(at float64, tr *Transfer)) *Transfer {
	if size <= 0 {
		panic(fmt.Sprintf("netsim: transfer %q size %d must be positive", name, size))
	}
	if threads < 1 {
		threads = 1
	}
	l.advance()
	tr := &Transfer{
		Name:      name,
		Size:      size,
		Threads:   threads,
		StartT:    l.eng.Now(),
		remaining: float64(size),
		onDone:    onDone,
		link:      l,
	}
	l.active = append(l.active, tr)
	l.reallocate()
	return tr
}

// advance integrates progress since the last state change.
func (l *Link) advance() {
	now := l.eng.Now()
	dt := now - l.lastAdvance
	if dt < 0 {
		panic("netsim: link time went backwards")
	}
	if dt > 0 {
		// Stalled transfers hold no bandwidth, so they do not count toward
		// the concurrency the path-BW estimator scales by.
		flowing := 0
		for _, tr := range l.active {
			if !tr.stalled {
				flowing++
			}
		}
		conc := float64(flowing)
		for _, tr := range l.active {
			moved := tr.rate * dt
			tr.remaining -= moved
			tr.concSeconds += conc * dt
			l.bytesServed += moved
			if tr.remaining < 0 {
				tr.remaining = 0
			}
		}
	}
	l.lastAdvance = now
}

// reallocate recomputes per-transfer rates by water-filling, completes any
// finished transfers, and schedules the next state-change event.
func (l *Link) reallocate() {
	l.maybeResampleJitter()
	if l.outage != nil {
		l.outage.step(l.eng.Now())
	}
	l.completeFinished()
	if len(l.active) > 0 {
		l.waterFill()
	}
	l.scheduleChange()
}

func (l *Link) completeFinished() {
	for i := 0; i < len(l.active); {
		tr := l.active[i]
		if tr.remaining <= completionEpsilon {
			l.active = append(l.active[:i], l.active[i+1:]...)
			tr.remaining = 0
			tr.done = true
			if tr.onDone != nil {
				// The callback may Start new transfers; they are appended
				// and picked up by the caller's subsequent waterFill.
				tr.onDone(l.eng.Now(), tr)
			}
			continue
		}
		i++
	}
}

// waterFill distributes current capacity max-min fairly, capping each
// transfer at its thread limit and redistributing the slack. The sort
// scratch slice lives on the link so steady-state reallocation does not
// allocate.
func (l *Link) waterFill() {
	capLeft := l.Capacity()
	order := l.sortScratch[:0]
	for _, tr := range l.active {
		if tr.stalled {
			tr.rate = 0 // frozen flows take no share
			continue
		}
		order = append(order, tr)
	}
	// Insertion sort on the thread limit. A link rarely carries more than a
	// handful of concurrent transfers, where insertion sort beats sort.Slice
	// and — unlike it — allocates no closure. The resulting rate assignment
	// is identical under any sort: ties on the limit receive equal rates in
	// the max-min fill (equal caps at adjacent positions yield equal
	// min(share, lim)), so the permutation among equals is unobservable.
	for i := 1; i < len(order); i++ {
		tr := order[i]
		lim := l.threads.Limit(tr.Threads)
		j := i - 1
		for j >= 0 && lim < l.threads.Limit(order[j].Threads) {
			order[j+1] = order[j]
			j--
		}
		order[j+1] = tr
	}
	n := len(order)
	for i, tr := range order {
		share := capLeft / float64(n-i)
		lim := l.threads.Limit(tr.Threads)
		r := math.Min(share, lim)
		tr.rate = r
		capLeft -= r
	}
	for i := range order {
		order[i] = nil // do not retain completed transfers via the scratch
	}
	l.sortScratch = order[:0]
}

// scheduleChange arms the next internal event: the earliest transfer
// completion or the next profile slot boundary, whichever comes first.
func (l *Link) scheduleChange() {
	if l.changeTm.Active() {
		l.eng.CancelTimer(l.changeTm)
	}
	l.changeTm = sim.Timer{}
	if len(l.active) == 0 {
		return
	}
	now := l.eng.Now()
	next := l.profile.NextBoundary(now)
	if l.jitterCV > 0 && l.nextJitterAt < next {
		next = l.nextJitterAt
	}
	if l.outage != nil {
		if tr := l.outage.nextTransition(); tr > now && tr < next {
			next = tr
		}
	}
	for _, tr := range l.active {
		if tr.rate <= 0 {
			continue
		}
		t := now + tr.remaining/tr.rate
		if t < next {
			next = t
		}
	}
	if next <= now {
		next = now + 1e-9
	}
	l.changeTm = l.eng.ScheduleTimer(next, l.changeCb, nil)
}

// BytesServed returns the total payload moved so far.
func (l *Link) BytesServed() float64 {
	l.advance()
	return l.bytesServed
}
