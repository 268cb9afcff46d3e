package detect

import (
	"sort"

	"fcatch/internal/trace"
)

// The paper's Section 2.3 scopes FCatch to single-resource interactions and
// points at multi-variable bug detection as the way to "extend FCatch to
// tackle these bugs". CorrelateRecovery is that extension in its simplest
// useful form: crash-recovery reports whose recovery reads execute under the
// same activation (the same recovery handler or recovery thread) describe
// one recovery decision consuming several of the crash node's leftovers, so
// a single fault hits them together. Grouping them gives developers one
// multi-resource finding instead of N seemingly independent reports.

// ReportGroup is a set of crash-recovery reports whose reads share one
// recovery activation.
type ReportGroup struct {
	// Frame labels the shared recovery activation (handler label or thread
	// name of the frame the reads ran under).
	Frame string
	// Reports, ordered by the reads' trace order.
	Reports []*Report
	// Window spans the earliest W and the latest W among the group: one
	// crash anywhere inside hits at least one member.
	WindowStart, WindowEnd int64
	// WindowID is the hazard window the group's reports belong to (reports
	// from different hazard windows never share a group: an activation frame
	// is one window's recovery, and the grouping key carries the window).
	WindowID int
}

// CorrelateRecovery groups crash-recovery reports by the activation frame of
// their recovery read, using the faulty-run trace the reports came from.
// Reports whose frame cannot be resolved (or groups of one) are returned as
// singleton groups.
func CorrelateRecovery(ty *trace.Trace, reports []*Report) []ReportGroup {
	type keyed struct {
		key   string
		order trace.OpID
	}
	frames := map[string][]*Report{}
	orders := map[string]trace.OpID{}
	label := func(r *Report) keyed {
		// Reports from later hazard windows get a window-suffixed key, so a
		// fallback key (unresolvable frame) never merges findings across
		// windows. Window 0 carries no suffix (Report.Key does the same).
		suffix := ""
		if r.WindowID > 0 {
			suffix = "|w" + itoa(int64(r.WindowID))
		}
		rec := ty.At(r.R.Op)
		if rec == nil {
			return keyed{key: "?" + r.R.Site + suffix, order: r.R.Op}
		}
		act := ty.At(rec.Frame)
		if act == nil {
			return keyed{key: "?" + r.R.Site + suffix, order: rec.ID}
		}
		return keyed{key: ty.Str(act.Aux) + "#" + itoa(int64(act.ID)) + suffix, order: act.ID}
	}
	for _, r := range reports {
		if r.Type != CrashRecovery {
			continue
		}
		k := label(r)
		frames[k.key] = append(frames[k.key], r)
		if cur, ok := orders[k.key]; !ok || k.order < cur {
			orders[k.key] = k.order
		}
	}

	keys := make([]string, 0, len(frames))
	for k := range frames {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		// The window suffix can split one activation across keys with the
		// same order (an op reachable from two windows' recoveries): break
		// the tie on the key so the grouping stays deterministic.
		if orders[keys[i]] != orders[keys[j]] {
			return orders[keys[i]] < orders[keys[j]]
		}
		return keys[i] < keys[j]
	})

	var groups []ReportGroup
	for _, k := range keys {
		rs := frames[k]
		sort.Slice(rs, func(i, j int) bool { return rs[i].R.Op < rs[j].R.Op })
		g := ReportGroup{Frame: trimFrameKey(k), Reports: rs, WindowID: rs[0].WindowID}
		for _, r := range rs {
			if g.WindowStart == 0 || r.W.TS < g.WindowStart {
				g.WindowStart = r.W.TS
			}
			if r.W.TS > g.WindowEnd {
				g.WindowEnd = r.W.TS
			}
		}
		groups = append(groups, g)
	}
	return groups
}

func trimFrameKey(k string) string {
	for i := len(k) - 1; i >= 0; i-- {
		if k[i] == '#' {
			return k[:i]
		}
	}
	return k
}

func itoa(n int64) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
