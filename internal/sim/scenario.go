package sim

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"fcatch/internal/trace"
)

// ParseScenario parses the CLI scenario syntax: events separated by ";",
// each event a comma-separated list of key=value fields.
//
//	step=120                      crash the default target at step 120
//	step=120,target=worker        crash role "worker" at step 120
//	delay=60                      60 ticks after the previous event, crash
//	                              the previously crashed role's restarted
//	                              incarnation (a recovery-window crash)
//	site=a.go:10,occ=2,when=before,action=kernel-drop
//	                              drop the message of the 2nd op at a.go:10
//	                              (a drop needs site=; an event without a
//	                              site is a node crash)
//	...,restart=40                restart this event's victim after 40 ticks
//	                              even if the workload wouldn't
//	...,restart=-1                never restart this event's victim
//
// Example: "step=120,restart=40;delay=48" — crash at step 120, restart the
// victim, and crash its fresh incarnation 48 ticks later.
func ParseScenario(s string) ([]FaultSpec, error) {
	var out []FaultSpec
	parts := strings.Split(s, ";")
	for _, part := range parts {
		part = strings.TrimSpace(part)
		if part == "" {
			if len(parts) == 1 {
				break // a blank scenario: reported as empty below
			}
			// A ";" with nothing on one side is almost always a typo'd or
			// truncated event — refuse it rather than silently running a
			// shorter scenario than the user wrote.
			return nil, fmt.Errorf("sim: empty scenario event (stray %q?) in %q", ";", s)
		}
		var ev FaultSpec
		for _, field := range strings.Split(part, ",") {
			field = strings.TrimSpace(field)
			if field == "" {
				continue
			}
			key, val, ok := strings.Cut(field, "=")
			if !ok {
				return nil, fmt.Errorf("sim: scenario field %q is not key=value", field)
			}
			switch key {
			case "step":
				n, err := strconv.ParseInt(val, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("sim: scenario step %q: %w", val, err)
				}
				ev.CrashStep = n
			case "site":
				ev.Site = val
			case "occ", "occurrence":
				n, err := strconv.Atoi(val)
				if err != nil {
					return nil, fmt.Errorf("sim: scenario occurrence %q: %w", val, err)
				}
				ev.Occurrence = n
			case "when":
				ev.When = val
			case "action":
				ev.Action = val
			case "target":
				ev.Target = val
			case "delay":
				n, err := strconv.ParseInt(val, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("sim: scenario delay %q: %w", val, err)
				}
				ev.Delay = n
			case "restart":
				n, err := strconv.ParseInt(val, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("sim: scenario restart %q: %w", val, err)
				}
				ev.Restart = &n
			default:
				return nil, fmt.Errorf("sim: unknown scenario field %q", key)
			}
		}
		out = append(out, ev)
	}
	if err := ValidateScenario(out); err != nil {
		return nil, err
	}
	return out, nil
}

// ValidateScenario is the one check every boundary applies before a scenario
// is run — the CLI parser above, corpus files, lease frames: at least one
// event, action and edge names from the fault vocabulary (an unknown action
// must not silently lower to a node crash), no negative occurrence, and a
// first event that can fire at something.
func ValidateScenario(scenario []FaultSpec) error {
	if len(scenario) == 0 {
		return fmt.Errorf("sim: empty scenario")
	}
	for i := range scenario {
		ev := &scenario[i]
		if ev.When != "" && ev.When != trace.WhenBefore && ev.When != trace.WhenAfter {
			return fmt.Errorf("sim: scenario when %q (have %s, %s)", ev.When, trace.WhenBefore, trace.WhenAfter)
		}
		if ev.Action != "" && !slices.Contains(trace.ActionNames(), ev.Action) {
			return fmt.Errorf("sim: scenario action %q (have %s)",
				ev.Action, strings.Join(trace.ActionNames(), ", "))
		}
		if ev.Occurrence < 0 {
			return fmt.Errorf("sim: scenario occurrence %d is negative", ev.Occurrence)
		}
		if err := checkAnchor(ev); err != nil {
			return fmt.Errorf("sim: scenario event %d (%s): %w", i+1, FormatScenario(scenario[i:i+1]), err)
		}
	}
	if first := &scenario[0]; first.relative() && first.Target == "" {
		// A relative event re-crashes the previously crashed role's
		// incarnation; the first event has no previous victim, so this
		// would silently fire at nothing.
		return fmt.Errorf(
			"sim: first scenario event (delay=%d) is relative with no target (no previous victim to re-crash)", first.Delay)
	}
	return nil
}

// checkAnchor refuses the fields an event's anchor would ignore, so a
// scenario never runs differently from how it reads. A site event fires at
// its site's occurrence: no step or delay. An event without a site is a node
// crash at a step, or a delay after the previous event: no drop action, no
// occurrence or edge, and not both a step and a delay. A drop hits the
// sender of the matched message: no target or restart.
func checkAnchor(ev *FaultSpec) error {
	if ev.CrashStep < 0 || ev.Delay < 0 {
		return errors.New("negative step or delay")
	}
	if ev.Site != "" {
		if ev.CrashStep != 0 || ev.Delay != 0 {
			return errors.New("step and delay do not apply to a site event")
		}
	} else {
		if ev.Action != "" && ev.Action != trace.ActionNodeCrash {
			return fmt.Errorf("action %s needs site= (an event without a site is a node crash)", ev.Action)
		}
		if ev.Occurrence != 0 || ev.When != "" {
			return errors.New("occ and when need site=")
		}
		if ev.CrashStep != 0 && ev.Delay != 0 {
			return errors.New("step and delay are two anchors; give one")
		}
	}
	if ev.Action == trace.ActionKernelDrop || ev.Action == trace.ActionAppDrop {
		if ev.Target != "" || ev.Restart != nil {
			return errors.New("target and restart do not apply to a drop")
		}
	}
	return nil
}

// FormatScenario is the inverse of ParseScenario: it renders a scenario back
// to the CLI syntax, so reports and reproduction narratives can print the
// exact -scenario string that replays them. Round-trip property:
// ParseScenario(FormatScenario(s)) == s for every scenario ParseScenario
// accepts.
func FormatScenario(scenario []FaultSpec) string {
	var b strings.Builder
	for i := range scenario {
		ev := &scenario[i]
		if i > 0 {
			b.WriteByte(';')
		}
		n := 0
		field := func(key, val string) {
			if n > 0 {
				b.WriteByte(',')
			}
			b.WriteString(key)
			b.WriteByte('=')
			b.WriteString(val)
			n++
		}
		if ev.CrashStep != 0 {
			field("step", strconv.FormatInt(ev.CrashStep, 10))
		}
		if ev.Site != "" {
			field("site", ev.Site)
		}
		if ev.Occurrence != 0 {
			field("occ", strconv.Itoa(ev.Occurrence))
		}
		if ev.When != "" {
			field("when", ev.When)
		}
		if ev.Action != "" {
			field("action", ev.Action)
		}
		if ev.Target != "" {
			field("target", ev.Target)
		}
		if ev.Delay != 0 {
			field("delay", strconv.FormatInt(ev.Delay, 10))
		}
		if ev.Restart != nil {
			field("restart", strconv.FormatInt(*ev.Restart, 10))
		}
		if n == 0 {
			// An all-defaults event (crash the default target at the
			// phase-chosen step) still needs a spelling.
			field("step", "0")
		}
	}
	return b.String()
}
