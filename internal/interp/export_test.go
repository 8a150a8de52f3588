package interp

import (
	"accv/internal/compiler"
	"accv/internal/mem"
)

// GateSite is where QuietNest evaluates a nest's yield gate.
type GateSite struct {
	InRacyNest  bool // an enclosing nest's lanes can race
	RaceCheck   bool // the run has -race-check on
	DeviceViews bool // host_data use_device bindings are in scope
}

// QuietNest reports whether runLoopLanes runs plan's lanes as a quiet
// nest, which yields only rarely, when the nest runs at site.
func QuietNest(exe *compiler.Executable, plan *compiler.LoopPlan, site GateSite) bool {
	in := &Interp{exe: exe}
	if site.RaceCheck {
		in.rc = newRaceTracker()
	}
	k := &kernelState{}
	if site.InRacyNest {
		k.nest = nestRacy
	}
	env := NewEnv(nil)
	if site.DeviceViews {
		env.DeviceViews = map[string]mem.Ptr{"a": {}}
	}
	c := &execCtx{in: in, env: env, kernel: k}
	return c.laneMode(plan) == nestQuiet
}
