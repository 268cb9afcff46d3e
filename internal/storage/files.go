package storage

import (
	"sort"
	"strings"

	"fcatch/internal/sim"
	"fcatch/internal/trace"
)

// files is the file-system face of a store, shared by LocalFS and GlobalFS,
// which differ only in how a path is named.
type files struct {
	st    store
	names func(machine string) resNames // the machine's namespace
}

// at names path's slot and directory on ctx's machine.
func (f *files) at(ctx *sim.Context, path string) (res, dir string) {
	n := f.names(ctx.Machine())
	return n.of(path), n.of(dirOf(path))
}

// Create adds a file; ErrAlreadyExists if present. Like KV creates, the op
// consumes the prior existence state (define-use link via Src) and yields a
// tainted success flag.
func (f *files) Create(ctx *sim.Context, path string, v sim.Value) (sim.Value, error) {
	res, dir := f.at(ctx, path)
	o := op{eff: eCreate, kind: trace.KStCreate, res: res, dir: dir, v: v}
	_, err := f.st.do(ctx, &o)
	return o.out, err
}

// Write stores content, creating the file if needed.
func (f *files) Write(ctx *sim.Context, path string, v sim.Value) {
	res, dir := f.at(ctx, path)
	f.st.do(ctx, &op{eff: eWrite, kind: trace.KStWrite, res: res, dir: dir, v: v})
}

// Append concatenates a comma-separated entry onto a file in one write op
// (a log append does not re-read the log).
func (f *files) Append(ctx *sim.Context, path string, v sim.Value) {
	res, dir := f.at(ctx, path)
	f.st.do(ctx, &op{eff: eAppend, kind: trace.KStWrite, res: res, dir: dir, v: v})
}

// Read returns the file content; ErrNotFound if absent.
func (f *files) Read(ctx *sim.Context, path string) (sim.Value, error) {
	return f.st.read(ctx, f.names(ctx.Machine()).of(path))
}

// Delete removes a file; ErrNotFound if absent.
func (f *files) Delete(ctx *sim.Context, path string) error {
	res, dir := f.at(ctx, path)
	_, err := f.st.do(ctx, &op{eff: eDelete, kind: trace.KStDelete, res: res, dir: dir})
	return err
}

// Exists probes a file; the returned value is a tainted boolean with a
// define-use link to the write/delete that decided it.
func (f *files) Exists(ctx *sim.Context, path string) sim.Value {
	res, dir := f.at(ctx, path)
	return f.st.exists(ctx, res, dir)
}

// List returns the paths under dir, sorted.
func (f *files) List(ctx *sim.Context, dir string) []string {
	n := f.names(ctx.Machine())
	out := f.st.list(ctx, n.of(dir), n.of(strings.TrimSuffix(dir, "/")+"/"))
	for i, res := range out {
		out[i] = res[len(n.prefix):]
	}
	return out
}

// seed pre-populates a file before the run starts (no tracing, no
// scheduling) — input data the workload begins with.
func (f *files) seed(machine, path string, v sim.Value) {
	f.st.slots[f.names(machine).of(path)] = &slot{data: v}
}

// peek inspects a file's content from outside the simulation.
func (f *files) peek(machine, path string) (any, bool) {
	if s, ok := f.st.slots[f.names(machine).of(path)]; ok {
		return s.data.Data, true
	}
	return nil, false
}

// LocalFS is the per-machine file system. Content is keyed by machine, so it
// survives process crashes and is visible to restarted incarnations — but
// only to processes on the same machine.
type LocalFS struct{ files }

// NewLocalFS creates the cluster-wide registry of per-machine disks.
func NewLocalFS() *LocalFS {
	disks := make(map[string]resNames) // machine -> "lfs:<machine>:<path>"
	return &LocalFS{files{st: newStore(), names: func(machine string) resNames {
		n, ok := disks[machine]
		if !ok {
			n = newResNames("lfs:" + machine + ":")
			disks[machine] = n
		}
		return n
	}}}
}

// Seed pre-populates a local file before the run starts (no tracing, no
// scheduling) — input data the workload begins with.
func (l *LocalFS) Seed(machine, path string, v sim.Value) { l.seed(machine, path, v) }

// PeekLocal inspects a local file's content from outside the simulation.
func (l *LocalFS) PeekLocal(machine, path string) (any, bool) { return l.peek(machine, path) }

// GlobalFS is the cluster-wide file system (HDFS stand-in). Content survives
// any process crash and is visible everywhere. Its Read is the "open" of bug
// MR2: opening a file whose directory the crashed AM's cleanup deleted.
type GlobalFS struct{ files }

// NewGlobalFS creates an empty global file system.
func NewGlobalFS() *GlobalFS {
	names := newResNames("gfs:")
	return &GlobalFS{files{st: newStore(), names: func(string) resNames { return names }}}
}

// Seed pre-populates a global file before the run starts (no tracing, no
// scheduling) — input data the workload begins with.
func (g *GlobalFS) Seed(path string, v sim.Value) { g.seed("", path, v) }

// Peek inspects a file's content from outside the simulation (checkers).
func (g *GlobalFS) Peek(path string) (any, bool) { return g.peek("", path) }

// DeleteTree removes a directory recursively — the "rm -r" of the MR2
// staging cleanup — and returns how many files went. Each removed file gets
// its own delete record (a recursive delete really is a sequence of
// unlinks), published as the last change of the file's own directory, then
// the tree root gets one.
func (g *GlobalFS) DeleteTree(ctx *sim.Context, dir string) int {
	n := g.names("")
	prefix := n.of(strings.TrimSuffix(dir, "/") + "/")
	var victims []string
	for res := range g.st.slots {
		if strings.HasPrefix(res, prefix) {
			victims = append(victims, res)
		}
	}
	sort.Strings(victims)
	for _, res := range victims {
		g.st.do(ctx, &op{eff: eDrop, kind: trace.KStDelete, res: res, dir: n.of(dirOf(res[len(n.prefix):]))})
	}
	tree := n.of(dir)
	g.st.do(ctx, &op{eff: eDrop, kind: trace.KStDelete, res: tree, dir: tree})
	return len(victims)
}

// Rename moves a global file (the atomic commit primitive); ErrNotFound if
// from is absent.
func (g *GlobalFS) Rename(ctx *sim.Context, from, to string) error {
	n := g.names("")
	_, err := g.st.do(ctx, &op{eff: eRename, kind: trace.KStRename, res: n.of(from), to: n.of(to), dir: n.of(dirOf(to))})
	return err
}
