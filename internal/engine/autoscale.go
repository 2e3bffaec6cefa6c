package engine

import (
	"fmt"

	"cloudburst/internal/sim"
	"cloudburst/internal/trace"
)

// AutoscaleConfig drives elastic external-cloud capacity — the paper's
// future-work scaling policy: keep just enough EC machines that the
// transfer pipes stay saturated, and release them when demand fades (the
// hybrid-cloud cost argument of Sec. I: "remote computation can completely
// be scaled down during periods of low demand").
//
// The control loop runs every 60 s and never drains the fleet below one
// machine.
type AutoscaleConfig struct {
	Max        int     // never boot above this many (default 8)
	BootDelay  float64 // seconds from decision to availability (default 120)
	TargetWait float64 // desired max expected queueing delay at the EC (default 300 s)
}

func (a AutoscaleConfig) withDefaults() AutoscaleConfig {
	if a.Max == 0 {
		a.Max = 8
	}
	if a.BootDelay == 0 {
		a.BootDelay = 120
	}
	if a.TargetWait == 0 {
		a.TargetWait = 300
	}
	return a
}

func (a AutoscaleConfig) validate() error {
	switch {
	case a.Max < autoscaleMin:
		return fmt.Errorf("engine: autoscale bounds [%d,%d] invalid", autoscaleMin, a.Max)
	case a.BootDelay < 0 || a.TargetWait <= 0:
		return fmt.Errorf("engine: autoscale timing invalid: %+v", a)
	}
	return nil
}

// autoscaler is the periodic control loop.
type autoscaler struct {
	e            *Engine
	cfg          AutoscaleConfig
	bootCb       sim.Callback // prebound boot-completion callback
	pendingBoots int
	bootCount    int
	drainCount   int
}

// startAutoscaler arms the control loop on the engine's EC cluster.
func startAutoscaler(e *Engine, cfg AutoscaleConfig) (*autoscaler, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	a := &autoscaler{e: e, cfg: cfg}
	a.bootCb = a.bootDone
	sim.NewTicker(e.eng, autoscalePeriod, func(now float64) { a.tick() })
	return a, nil
}

// bootDone brings a machine online after its boot delay.
func (a *autoscaler) bootDone(now float64, _ any) {
	e := a.e
	a.pendingBoots--
	m := e.ec.AddMachine()
	if e.wants(trace.AutoscaleBoot) {
		e.tracer.Emit(trace.Event{
			Type: trace.AutoscaleBoot, T: now,
			Cluster: e.ec.Name, Machine: m.ID, Fleet: e.ec.Size(),
		})
	}
	e.rentalStarted(e.sites[0], m)
	if e.ecFaults != nil {
		e.ecFaults.MachineJoined()
	}
}

// boot orders n machines, each online after the boot delay.
func (a *autoscaler) boot(n int) {
	for range n {
		a.pendingBoots++
		a.bootCount++
		a.e.eng.CallAfter(a.cfg.BootDelay, a.bootCb, nil)
	}
}

// tick evaluates demand and scales. Demand is the expected queueing wait
// at the EC for work that has actually arrived there (queued + running).
// Jobs still in the upload pipe are deliberately excluded: they arrive at
// the pace of the pipe, and the paper's policy is to hold "just enough"
// machines to keep the transfer path saturated — booting for bytes that
// cannot arrive any faster only rents idle capacity.
//
// A fleet that revocations took below autoscaleMin is refilled regardless of
// demand: with no EC machine the schedulers burst nothing, so no backlog
// would ever ask for one. It is not refilled once the budget is spent,
// because no burst could then use the machine.
func (a *autoscaler) tick() {
	e := a.e
	fleet := e.ec.Size() + a.pendingBoots
	wait := e.ec.BacklogStdSeconds() / float64(max(fleet, 1))

	switch {
	case fleet < autoscaleMin && !a.budgetSpent():
		a.boot(autoscaleMin - fleet)
	case wait > a.cfg.TargetWait && fleet < a.cfg.Max:
		a.boot(1)
	case wait < a.cfg.TargetWait/2 && a.pendingBoots == 0:
		if m := e.ec.DrainIdleMachine(autoscaleMin); m != nil {
			a.drainCount++
			if e.wants(trace.AutoscaleDrain) {
				e.tracer.Emit(trace.Event{
					Type: trace.AutoscaleDrain, T: e.eng.Now(),
					Cluster: e.ec.Name, Machine: m.ID, Fleet: e.ec.Size(),
				})
			}
			e.rentalEnded(e.sites[0], m, e.eng.Now())
		}
	}
}

// budgetSpent reports whether the budget gate can admit no further burst:
// the budget left is below the cheapest charge, one billing interval.
func (a *autoscaler) budgetSpent() bool {
	m := a.e.meter
	return m != nil && m.Remaining() < m.Charge(0)
}
