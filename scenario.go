package fcatch

import "fcatch/internal/sim"

// FaultSpec is one fault event of an injection scenario, in the JSON-stable
// form shared by the simulator, the campaign engine, and the
// distributed-campaign wire protocol. A scenario is an ordered []FaultSpec:
// each event is step-anchored (CrashStep), site-anchored (Site/Occurrence/
// When/Action), or relative (Delay ticks after the previous event fires).
// Set Options.Scenario to observe and detect against a custom scenario; an
// empty scenario uses the workload's default single crash.
type FaultSpec = sim.FaultSpec

// Fault action and edge names — the one shared vocabulary (see
// internal/sim's fault table).
const (
	ActionNodeCrash  = sim.ActionNodeCrash
	ActionKernelDrop = sim.ActionKernelDrop
	ActionAppDrop    = sim.ActionAppDrop

	WhenBefore = sim.WhenBefore
	WhenAfter  = sim.WhenAfter
)

// FaultActionNames lists every fault action name in canonical order.
func FaultActionNames() []string { return sim.ActionNames() }

// ParseScenario parses the CLI scenario syntax — events separated by ";",
// each a comma-separated list of key=value fields, e.g.
// "step=120,restart=40;delay=48" (see sim.ParseScenario for the grammar).
func ParseScenario(s string) ([]FaultSpec, error) { return sim.ParseScenario(s) }

// FormatScenario is the inverse of ParseScenario: the exact -scenario string
// that replays a scenario, which is also a campaign plan's corpus key.
func FormatScenario(scenario []FaultSpec) string { return sim.FormatScenario(scenario) }
