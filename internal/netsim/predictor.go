package netsim

import (
	"fmt"

	"cloudburst/internal/sim"
	"cloudburst/internal/stats"
)

// Predictor is the learned time-of-day bandwidth model (Sec. III-A2): one
// EWMA per time-of-day slot plus a global EWMA. Predictions use the slot
// estimate when that slot has been observed, falling back to the global
// estimate and finally to a configured prior. It never reads the true
// profile — everything it knows arrives through Observe.
type Predictor struct {
	slots   []*stats.EWMA
	slotDur float64
	global  *stats.EWMA
	prior   float64
}

// NewPredictor creates a predictor with numSlots time-of-day slots, EWMA
// weight alpha, and a prior bandwidth estimate used before any observation.
func NewPredictor(numSlots int, alpha, prior float64) *Predictor {
	if numSlots <= 0 {
		panic("netsim: predictor needs at least one slot")
	}
	if prior <= 0 {
		panic(fmt.Sprintf("netsim: predictor prior %v must be positive", prior))
	}
	p := &Predictor{
		slots:   make([]*stats.EWMA, numSlots),
		slotDur: Day / float64(numSlots),
		global:  stats.NewEWMA(alpha),
		prior:   prior,
	}
	for i := range p.slots {
		p.slots[i] = stats.NewEWMA(alpha)
	}
	return p
}

func (p *Predictor) slotIndex(t float64) int {
	i := int((t - Day*float64(int(t/Day))) / p.slotDur)
	if i < 0 {
		i = 0
	}
	if i >= len(p.slots) {
		i = len(p.slots) - 1
	}
	return i
}

// Observe folds in a bandwidth measurement taken at virtual time t. Both
// probe results and actual job transfer rates feed this, matching the paper
// ("used in conjunction with the actual values ... observed during the
// experiment").
func (p *Predictor) Observe(t, bw float64) {
	if bw <= 0 {
		return // a zero-length or failed measurement carries no signal
	}
	p.slots[p.slotIndex(t)].Observe(bw)
	p.global.Observe(bw)
}

// Predict returns the estimated bandwidth at virtual time t.
func (p *Predictor) Predict(t float64) float64 {
	if s := p.slots[p.slotIndex(t)]; s.N() > 0 {
		return s.Value()
	}
	if p.global.N() > 0 {
		return p.global.Value()
	}
	return p.prior
}

// Observations returns the total number of measurements folded in.
func (p *Predictor) Observations() int { return p.global.N() }

// SlotEstimates returns a copy of the current per-slot estimates (0 for
// never-observed slots), for Fig. 4(a)-style reporting.
func (p *Predictor) SlotEstimates() []float64 {
	out := make([]float64, len(p.slots))
	for i, s := range p.slots {
		out[i] = s.Value()
	}
	return out
}

// Prober issues periodic fixed-size test transfers on a link (the paper
// uses 1 MB), reporting each measured bandwidth to the predictor and the
// thread tuner.
type Prober struct {
	link      *Link
	predictor *Predictor
	tuner     *Tuner
	ticker    *sim.Ticker
	inFlight  bool
	count     int

	// OnProbe fires after each completed probe with the measured path
	// bandwidth (concurrency-corrected bytes/sec). Optional; the tracing
	// subsystem hooks it.
	OnProbe func(at, pathBW float64)
}

// probeBytes is the probe payload: the paper's 1 MB probe file.
const probeBytes = 1 << 20

// ProberConfig parameterizes NewProber.
type ProberConfig struct {
	Period float64 // seconds between probes (e.g. 300)
}

// NewProber starts probing. tuner may be nil to probe with one thread.
func NewProber(eng *sim.Engine, link *Link, pred *Predictor, tuner *Tuner, cfg ProberConfig) *Prober {
	if cfg.Period <= 0 {
		panic("netsim: probe period must be positive")
	}
	p := &Prober{link: link, predictor: pred, tuner: tuner}
	p.ticker = sim.NewTicker(eng, cfg.Period, func(now float64) { p.probe() })
	return p
}

func (p *Prober) probe() {
	if p.inFlight {
		return // previous probe still running on a congested pipe
	}
	threads := 1
	if p.tuner != nil {
		threads = p.tuner.Threads()
	}
	p.inFlight = true
	p.link.Start("probe", probeBytes, threads, func(at float64, tr *Transfer) {
		p.inFlight = false
		p.count++
		// The predictor learns path capacity (concurrency-corrected); the
		// tuner optimizes this probe's own achieved rate.
		p.predictor.Observe(at, tr.PathBW(at))
		if p.tuner != nil {
			p.tuner.Observe(at, tr.AchievedBW(at))
		}
		if p.OnProbe != nil {
			p.OnProbe(at, tr.PathBW(at))
		}
	})
}

// Count returns the number of completed probes.
func (p *Prober) Count() int { return p.count }

// Stop halts future probes.
func (p *Prober) Stop() { p.ticker.Stop() }
