package detect

import (
	"fmt"
	"strconv"
	"strings"

	"fcatch/internal/trace"
)

// The hazard-window model. A fault does not just name victims: it opens a
// window in time during which the system's recovery races against whatever
// the fault interrupted. Every detection pass derives the observation's
// windows once — from the scenario's actual fault firings — and the
// detectors, the cross-window pairing pass and the report grouping all
// reason per window. A classic single-crash observation lowers to exactly
// one window.

// FaultFiring is trace.FaultFiring under the name it had in this package.
// The package itself uses trace.FaultFiring; the alias goes once no caller
// names it.
type FaultFiring = trace.FaultFiring

// WindowKind distinguishes how a hazard window was opened.
type WindowKind int

const (
	// WindowCrashRecovery: a node crash opened the window; it spans the
	// victim's recovery.
	WindowCrashRecovery WindowKind = iota
	// WindowDropInduced: a message drop opened the window; the sender's
	// peers race against the message that never arrives.
	WindowDropInduced
)

func (k WindowKind) String() string {
	if k == WindowDropInduced {
		return "drop-induced"
	}
	return "crash-recovery"
}

// Window is one hazard window of an observation, first-class: the interval
// a fault opened, who it hit, and who recovers inside it. It embeds the
// firing that opened it, so its anchor is the anchor that fired: Index is
// the scenario event, Action what it did, Victim the crashed process
// (crash-recovery) or the sender whose message was dropped (drop-induced),
// Step the logical-clock step the window opens at, and Site, Occurrence and
// When the replayable site anchor of a site event ("" otherwise).
type Window struct {
	// ID is the window's 0-based position in the observation (firing order).
	ID int
	trace.FaultFiring
	// Incarnation is the victim's restarted replacement — the window's
	// recovery node. Empty when the victim never came back (pinned down,
	// drop-induced, or the run ended first).
	Incarnation string
	// RestartStep is the step the incarnation came up at (0 when the victim
	// never restarted). A rebuilt scenario event forces the same restart, so
	// replaying the window reproduces its recovery even when the workload's
	// default policy would leave the victim down.
	RestartStep int64
	// CloseStep bounds the window: the step at which the window's own
	// recovery node died (recovery aborted — the rolling-crash shape), or
	// the end of the trace while recovery was still in flight.
	CloseStep int64
}

// Kind is how the window was opened, read off the firing's action.
func (w *Window) Kind() WindowKind {
	if w.Action == "kernel-drop" || w.Action == "app-drop" {
		return WindowDropInduced
	}
	return WindowCrashRecovery
}

// Contains reports whether a step falls inside the window: strictly after
// the open, at or before the close. A fault that kills the window's own
// recovery node fires exactly at CloseStep, so the close edge is inclusive.
func (w *Window) Contains(step int64) bool {
	return step > w.Step && step <= w.CloseStep
}

// Role is the victim's role, incarnation suffix stripped ("am#2" → "am") —
// the name scenario events target, so a rebuilt event aims at whatever
// incarnation is current when it fires.
func (w *Window) Role() string { return trace.Role(w.Victim) }

// String renders a compact one-line summary ("w0[crash-recovery] am#1@142..390 rec=am#2").
func (w *Window) String() string {
	s := fmt.Sprintf("w%d[%s] %s@%d..%d", w.ID, w.Kind(), w.Victim, w.Step, w.CloseStep)
	if w.Incarnation != "" {
		s += " rec=" + w.Incarnation
	}
	return s
}

// DeriveWindows lowers the faulty run's fault firings to hazard windows, in
// firing order — the one place a Window is assembled. Firings that hit
// nothing (empty victim) open no window. A one-firing scenario — the classic
// observation crash — lowers to exactly one window spanning from the crash
// to the end of the trace.
func DeriveWindows(ty *trace.Trace, firings []trace.FaultFiring) []Window {
	if len(firings) == 0 {
		return nil
	}
	return deriveWindows(ty, firings, crashBookkeeping(ty))
}

func deriveWindows(ty *trace.Trace, firings []trace.FaultFiring, bk bookkeeping) []Window {
	end := traceEnd(ty)
	var out []Window
	for _, f := range firings {
		if f.Victim == "" {
			continue
		}
		w := Window{ID: len(out), FaultFiring: f, CloseStep: end}
		if w.Kind() == WindowCrashRecovery {
			closeCrashWindow(&w, bk)
		}
		out = append(out, w)
	}
	return out
}

// closeCrashWindow resolves a crash window's recovery incarnation, restart
// step and close step from the trace's crash/restart bookkeeping.
func closeCrashWindow(w *Window, bk bookkeeping) {
	inc := nextIncarnation(w.Victim)
	if inc == "" {
		return
	}
	ts, ok := bk.restartAt[inc]
	if !ok {
		return
	}
	w.Incarnation, w.RestartStep = inc, ts
	if ts, ok := bk.crashAt[inc]; ok {
		w.CloseStep = ts
	}
}

// bookkeeping is what a trace's crash and restart records say: the first
// crash step and the first restart step per PID, and the first crash record
// of all (nil when nothing crashed).
type bookkeeping struct {
	crashAt, restartAt map[string]int64
	first              *trace.Record
}

// crashBookkeeping scans the trace once for crash and restart records.
func crashBookkeeping(ty *trace.Trace) bookkeeping {
	bk := bookkeeping{crashAt: map[string]int64{}, restartAt: map[string]int64{}}
	for i := range ty.Records {
		r := &ty.Records[i]
		var at map[string]int64
		switch r.Kind {
		case trace.KCrash:
			at = bk.crashAt
			if bk.first == nil {
				bk.first = r
			}
		case trace.KRestart:
			at = bk.restartAt
		default:
			continue
		}
		pid := ty.Str(r.Aux)
		if _, ok := at[pid]; !ok {
			at[pid] = r.TS
		}
	}
	return bk
}

// nextIncarnation names the victim's restarted replacement: "am#1" → "am#2".
// Empty when the PID carries no incarnation suffix.
func nextIncarnation(pid string) string {
	i := strings.LastIndexByte(pid, '#')
	if i < 0 {
		return ""
	}
	n, err := strconv.Atoi(pid[i+1:])
	if err != nil {
		return ""
	}
	return pid[:i+1] + strconv.Itoa(n+1)
}

// traceEnd is the last recorded step of the trace (0 for an empty one).
func traceEnd(t *trace.Trace) int64 {
	if n := len(t.Records); n > 0 {
		return t.Records[n-1].TS
	}
	return 0
}

// ObservationWindows resolves an observation's hazard windows from whatever
// the caller has — the lowering ladder, and the only place windows are
// resolved; the detectors take its result in Options.Windows. Explicit
// windows win, then the scenario's fault firings; a caller with neither
// (saved traces) gets the firings the trace itself can vouch for: a node
// crash per listed victim, or of the victim of the trace's first crash
// record, at the step the victim's crash record carries (a victim with none
// opens at the first crash record's). Every rung ends in DeriveWindows'
// constructor.
func ObservationWindows(ty *trace.Trace, opts Options) []Window {
	if len(opts.Windows) > 0 {
		return opts.Windows
	}
	if len(opts.Firings) > 0 {
		return DeriveWindows(ty, opts.Firings)
	}
	bk := crashBookkeeping(ty)
	var firstStep int64
	victims := opts.CrashedPIDs
	if bk.first != nil {
		firstStep = bk.first.TS
		if len(victims) == 0 {
			victims = []string{ty.Str(bk.first.Aux)}
		}
	}
	var firings []trace.FaultFiring
	for _, pid := range victims {
		if pid == "" {
			continue
		}
		step, ok := bk.crashAt[pid]
		if !ok {
			step = firstStep
		}
		firings = append(firings, trace.FaultFiring{Index: len(firings), Action: "node-crash", Step: step, Victim: pid})
	}
	return deriveWindows(ty, firings, bk)
}
