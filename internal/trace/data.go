package trace

// RecordData is the resolved, string-valued form of one Record: comparable
// across traces whose symbol tables assign different Syms.
type RecordData struct {
	ID      OpID
	TS      int64
	Machine string
	PID     string
	Thread  int
	Frame   OpID
	Kind    Kind
	Site    string
	Stack   []string
	Res     string
	Src     OpID
	Aux     string
	Target  string
	Flags   uint32
	Causor  OpID
	Taint   []OpID
	Ctl     []OpID
}

// Data resolves a record's symbols into its RecordData form.
func (t *Trace) Data(r *Record) RecordData {
	return RecordData{
		ID:      r.ID,
		TS:      r.TS,
		Machine: t.Str(r.Machine),
		PID:     t.Str(r.PID),
		Thread:  r.Thread,
		Frame:   r.Frame,
		Kind:    r.Kind,
		Site:    t.Str(r.Site),
		Stack:   t.StackLabels(r.Stack),
		Res:     t.Str(r.Res),
		Src:     r.Src,
		Aux:     t.Str(r.Aux),
		Target:  t.Str(r.Target),
		Flags:   r.Flags,
		Causor:  r.Causor,
		Taint:   r.Taint,
		Ctl:     r.Ctl,
	}
}
