// Package storage provides the persistent substrates of the simulated world:
// per-machine local file systems (survive process crashes), a global file
// system (the HDFS stand-in), and a watchable key-value store (the ZooKeeper
// stand-in). These are the paper's second resource type (Section 3.2):
// "persistent data in file systems, key-value stores, etc." — every access
// is traced with create/delete/read/write/rename/check-if-exist op kinds.
package storage

import (
	"errors"
	"sort"
	"strings"

	"fcatch/internal/sim"
	"fcatch/internal/trace"
)

// Errors returned by storage operations.
var (
	ErrNotFound      = errors.New("storage: no such file or record")
	ErrAlreadyExists = errors.New("storage: already exists")
)

// fileSlot is one stored object plus detector bookkeeping.
type fileSlot struct {
	data      sim.Value
	lastWrite trace.OpID
}

// fileStore is the shared implementation behind LocalFS and GlobalFS.
type fileStore struct {
	slots map[string]*fileSlot // full resource id -> slot
	// dirWrites tracks the last structural change under each directory
	// resource, so List/Exists reads get define-use links.
	dirWrites map[string]trace.OpID
}

func newFileStore() *fileStore {
	return &fileStore{slots: make(map[string]*fileSlot), dirWrites: make(map[string]trace.OpID)}
}

func dirOf(path string) string {
	i := strings.LastIndex(path, "/")
	if i <= 0 {
		return "/"
	}
	return path[:i]
}

// resNames is one store's path -> trace resource name map: each name is
// built once, so an op on a known path builds no string.
type resNames struct {
	prefix string
	m      map[string]string
}

func newResNames(prefix string) resNames {
	return resNames{prefix: prefix, m: make(map[string]string)}
}

func (n resNames) of(path string) string {
	r, ok := n.m[path]
	if !ok {
		r = n.prefix + path
		n.m[path] = r
	}
	return r
}

func (fs *fileStore) noteDirChange(res string, id trace.OpID) {
	fs.dirWrites[res] = id
}

// create adds a file; errors if present. Like KV creates, the op consumes
// the prior existence state (define-use link via Src) and yields a tainted
// success flag.
func (fs *fileStore) create(ctx *sim.Context, res, dirRes string, v sim.Value) (sim.Value, error) {
	var err error
	src := fs.dirWrites[dirRes]
	if s, ok := fs.slots[res]; ok {
		src = s.lastWrite
	}
	id, _ := ctx.Do(trcOp(trace.KStCreate, res, v.Taint(), src), &sim.OpEffects{
		Apply: func() {
			if _, ok := fs.slots[res]; ok {
				err = ErrAlreadyExists
				return
			}
			fs.slots[res] = &fileSlot{data: v}
		},
		FlagsAfter: failFlag(&err),
		PostEmit: func(id trace.OpID) {
			if err != nil || id == trace.NoOp {
				return
			}
			if s := fs.slots[res]; s != nil {
				s.lastWrite = id
			}
			fs.noteDirChange(dirRes, id)
		},
	})
	ok := sim.V(err == nil)
	if id != trace.NoOp {
		ok = ok.WithTaint(id)
	}
	return ok, err
}

// write stores content, creating the file if needed.
func (fs *fileStore) write(ctx *sim.Context, res, dirRes string, v sim.Value) {
	created := false
	ctx.Do(trcOp(trace.KStWrite, res, v.Taint(), trace.NoOp), &sim.OpEffects{
		Apply: func() {
			s, ok := fs.slots[res]
			if !ok {
				s = &fileSlot{}
				fs.slots[res] = s
				created = true
			}
			s.data = v
		},
		PostEmit: func(id trace.OpID) { fs.noteWrite(res, dirRes, id, created) },
	})
}

// appendTo concatenates a comma-separated entry onto a file in one write op
// (a log append does not re-read the log).
func (fs *fileStore) appendTo(ctx *sim.Context, res, dirRes string, v sim.Value) {
	created := false
	ctx.Do(trcOp(trace.KStWrite, res, v.Taint(), trace.NoOp), &sim.OpEffects{
		Apply: func() {
			s, ok := fs.slots[res]
			if !ok {
				s = &fileSlot{}
				fs.slots[res] = s
				created = true
			}
			if prev, _ := s.data.Data.(string); prev != "" {
				s.data = sim.Derive(prev+","+v.Str(), s.data, v)
			} else {
				s.data = sim.Derive(v.Str(), v)
			}
		},
		PostEmit: func(id trace.OpID) { fs.noteWrite(res, dirRes, id, created) },
	})
}

// noteWrite publishes a traced write's op ID as the file's last write and,
// when the write created the file, as its directory's last change.
func (fs *fileStore) noteWrite(res, dirRes string, id trace.OpID, created bool) {
	if id == trace.NoOp {
		return
	}
	if s := fs.slots[res]; s != nil {
		s.lastWrite = id
	}
	if created {
		fs.noteDirChange(dirRes, id)
	}
}

// read returns content; ErrNotFound if absent.
func (fs *fileStore) read(ctx *sim.Context, res string) (sim.Value, error) {
	var out sim.Value
	var err error
	var src trace.OpID
	if s, ok := fs.slots[res]; ok {
		src = s.lastWrite
	}
	id, _ := ctx.Do(trcOp(trace.KStRead, res, nil, src), &sim.OpEffects{
		Apply: func() {
			s, ok := fs.slots[res]
			if !ok {
				err = ErrNotFound
				return
			}
			out = s.data
		},
		FlagsAfter: failFlag(&err),
	})
	if id != trace.NoOp {
		// A failed read still carries its op taint: the observed absence is
		// information derived from the read.
		out = out.WithTaint(id)
	}
	if err != nil {
		return out, err
	}
	return out, nil
}

// del removes a file; ErrNotFound if absent.
func (fs *fileStore) del(ctx *sim.Context, res, dirRes string) error {
	var err error
	ctx.Do(trcOp(trace.KStDelete, res, nil, trace.NoOp), &sim.OpEffects{
		Apply: func() {
			if _, ok := fs.slots[res]; !ok {
				err = ErrNotFound
				return
			}
			delete(fs.slots, res)
		},
		FlagsAfter: failFlag(&err),
		PostEmit: func(id trace.OpID) {
			if err == nil {
				fs.noteDirChange(dirRes, id)
			}
		},
	})
	return err
}

// exists probes a file; the returned value is a tainted boolean with a
// define-use link to the write/delete that decided it.
func (fs *fileStore) exists(ctx *sim.Context, res, dirRes string) sim.Value {
	var present bool
	src := fs.dirWrites[dirRes]
	if s, ok := fs.slots[res]; ok {
		src = s.lastWrite
	}
	id, _ := ctx.Do(trcOp(trace.KStExists, res, nil, src), &sim.OpEffects{Apply: func() {
		_, present = fs.slots[res]
	}})
	out := sim.V(present)
	if id != trace.NoOp {
		out = out.WithTaint(id)
	}
	return out
}

// rename moves a file; ErrNotFound if src is absent.
func (fs *fileStore) rename(ctx *sim.Context, fromRes, toRes, dirRes string) error {
	var err error
	ctx.Do(trcOp(trace.KStRename, fromRes, nil, trace.NoOp), &sim.OpEffects{
		Apply: func() {
			s, ok := fs.slots[fromRes]
			if !ok {
				err = ErrNotFound
				return
			}
			delete(fs.slots, fromRes)
			fs.slots[toRes] = s
		},
		FlagsAfter: failFlag(&err),
		PostEmit: func(id trace.OpID) {
			if err != nil || id == trace.NoOp {
				return
			}
			if s := fs.slots[toRes]; s != nil {
				s.lastWrite = id
			}
			fs.noteDirChange(dirRes, id)
		},
	})
	return err
}

// list returns the sorted resource IDs under prefix (one directory level is
// not enforced; callers filter).
func (fs *fileStore) list(ctx *sim.Context, dirRes, prefix string) []string {
	var names []string
	ctx.Do(trcOp(trace.KStList, dirRes, nil, fs.dirWrites[dirRes]), &sim.OpEffects{Apply: func() {
		for res := range fs.slots {
			if strings.HasPrefix(res, prefix) {
				names = append(names, res)
			}
		}
		sort.Strings(names)
	}})
	return names
}

// deleteTree removes everything under prefix — the "rm -r" of the MR2
// staging cleanup. Each removed file gets its own delete record (a recursive
// delete really is a sequence of unlinks), then the tree root gets one.
func (fs *fileStore) deleteTree(ctx *sim.Context, treeRes, prefix string) int {
	var victims []string
	for res := range fs.slots {
		if strings.HasPrefix(res, prefix) {
			victims = append(victims, res)
		}
	}
	sort.Strings(victims)
	for _, res := range victims {
		ctx.Do(trcOp(trace.KStDelete, res, nil, trace.NoOp), &sim.OpEffects{Apply: func() {
			delete(fs.slots, res)
		}})
	}
	id, _ := ctx.Do(trcOp(trace.KStDelete, treeRes, nil, trace.NoOp), nil)
	fs.noteDirChange(treeRes, id)
	return len(victims)
}

func trcOp(kind trace.Kind, res string, taint []trace.OpID, src trace.OpID) sim.OpReq {
	return sim.OpReq{Kind: kind, Res: res, Taint: taint, Src: src}
}

// failFlag marks the record failed when *err is set after Apply; failed
// write-like ops define no content and must not count as recovery resets.
// It inlines, so the closure stays on the caller's stack with its
// OpEffects.
func failFlag(err *error) func() uint32 {
	return func() uint32 {
		if *err != nil {
			return trace.FlagFailed
		}
		return 0
	}
}

// LocalFS is the per-machine file system. Content is keyed by machine, so it
// survives process crashes and is visible to restarted incarnations — but
// only to processes on the same machine.
type LocalFS struct{ fs *fileStore }

// NewLocalFS creates the cluster-wide registry of per-machine disks.
func NewLocalFS() *LocalFS { return &LocalFS{fs: newFileStore()} }

func (l *LocalFS) res(ctx *sim.Context, path string) string {
	return lres(ctx.Machine(), path)
}
func (l *LocalFS) dirRes(ctx *sim.Context, path string) string {
	return lres(ctx.Machine(), dirOf(path))
}

// lres is the trace resource name of path on machine's disk.
func lres(machine, path string) string { return "lfs:" + machine + ":" + path }

// Create adds a local file; ErrAlreadyExists if present. The returned value
// is the tainted success flag.
func (l *LocalFS) Create(ctx *sim.Context, path string, v sim.Value) (sim.Value, error) {
	return l.fs.create(ctx, l.res(ctx, path), l.dirRes(ctx, path), v)
}

// Write stores content, creating the file if needed.
func (l *LocalFS) Write(ctx *sim.Context, path string, v sim.Value) {
	l.fs.write(ctx, l.res(ctx, path), l.dirRes(ctx, path), v)
}

// Read returns the file content.
func (l *LocalFS) Read(ctx *sim.Context, path string) (sim.Value, error) {
	return l.fs.read(ctx, l.res(ctx, path))
}

// Append concatenates an entry onto a local file (one write op).
func (l *LocalFS) Append(ctx *sim.Context, path string, v sim.Value) {
	l.fs.appendTo(ctx, l.res(ctx, path), l.dirRes(ctx, path), v)
}

// Delete removes a local file.
func (l *LocalFS) Delete(ctx *sim.Context, path string) error {
	return l.fs.del(ctx, l.res(ctx, path), l.dirRes(ctx, path))
}

// Exists probes a local file.
func (l *LocalFS) Exists(ctx *sim.Context, path string) sim.Value {
	return l.fs.exists(ctx, l.res(ctx, path), l.dirRes(ctx, path))
}

// List returns paths under dir on this machine, sorted.
func (l *LocalFS) List(ctx *sim.Context, dir string) []string {
	prefix := l.res(ctx, strings.TrimSuffix(dir, "/")+"/")
	out := l.fs.list(ctx, l.res(ctx, dir), prefix)
	for i, res := range out {
		out[i] = strings.TrimPrefix(res, lres(ctx.Machine(), ""))
	}
	return out
}

// Seed pre-populates a local file before the run starts (no tracing, no
// scheduling) — input data the workload begins with.
func (l *LocalFS) Seed(machine, path string, v sim.Value) {
	l.fs.slots[lres(machine, path)] = &fileSlot{data: v}
}

// PeekLocal inspects a local file's content from outside the simulation.
func (l *LocalFS) PeekLocal(machine, path string) (any, bool) {
	if s, ok := l.fs.slots[lres(machine, path)]; ok {
		return s.data.Data, true
	}
	return nil, false
}

// GlobalFS is the cluster-wide file system (HDFS stand-in). Content survives
// any process crash and is visible everywhere.
type GlobalFS struct {
	fs    *fileStore
	names resNames
}

// NewGlobalFS creates an empty global file system.
func NewGlobalFS() *GlobalFS {
	return &GlobalFS{fs: newFileStore(), names: newResNames("gfs:")}
}

// Seed pre-populates a global file before the run starts (no tracing, no
// scheduling) — input data the workload begins with.
func (g *GlobalFS) Seed(path string, v sim.Value) {
	g.fs.slots[g.res(path)] = &fileSlot{data: v}
}

// Peek inspects a file's content from outside the simulation (checkers).
func (g *GlobalFS) Peek(path string) (any, bool) {
	if s, ok := g.fs.slots[g.res(path)]; ok {
		return s.data.Data, true
	}
	return nil, false
}

func (g *GlobalFS) res(path string) string { return g.names.of(path) }

// Create adds a global file; ErrAlreadyExists if present. The returned value
// is the tainted success flag.
func (g *GlobalFS) Create(ctx *sim.Context, path string, v sim.Value) (sim.Value, error) {
	return g.fs.create(ctx, g.res(path), g.res(dirOf(path)), v)
}

// Write stores content, creating the file if needed.
func (g *GlobalFS) Write(ctx *sim.Context, path string, v sim.Value) {
	g.fs.write(ctx, g.res(path), g.res(dirOf(path)), v)
}

// Read returns the file content (the "open" of bug MR2: opening a file whose
// directory the crashed AM's cleanup deleted).
func (g *GlobalFS) Read(ctx *sim.Context, path string) (sim.Value, error) {
	return g.fs.read(ctx, g.res(path))
}

// Append concatenates an entry onto a global file (one write op).
func (g *GlobalFS) Append(ctx *sim.Context, path string, v sim.Value) {
	g.fs.appendTo(ctx, g.res(path), g.res(dirOf(path)), v)
}

// Delete removes a global file.
func (g *GlobalFS) Delete(ctx *sim.Context, path string) error {
	return g.fs.del(ctx, g.res(path), g.res(dirOf(path)))
}

// DeleteTree removes a directory recursively and returns how many files went.
func (g *GlobalFS) DeleteTree(ctx *sim.Context, dir string) int {
	return g.fs.deleteTree(ctx, g.res(dir), g.res(strings.TrimSuffix(dir, "/")+"/"))
}

// Rename moves a global file (the atomic commit primitive).
func (g *GlobalFS) Rename(ctx *sim.Context, from, to string) error {
	return g.fs.rename(ctx, g.res(from), g.res(to), g.res(dirOf(to)))
}

// Exists probes a global file.
func (g *GlobalFS) Exists(ctx *sim.Context, path string) sim.Value {
	return g.fs.exists(ctx, g.res(path), g.res(dirOf(path)))
}

// List returns paths under dir, sorted.
func (g *GlobalFS) List(ctx *sim.Context, dir string) []string {
	prefix := g.res(strings.TrimSuffix(dir, "/") + "/")
	out := g.fs.list(ctx, g.res(dir), prefix)
	for i, res := range out {
		out[i] = strings.TrimPrefix(res, "gfs:")
	}
	return out
}
