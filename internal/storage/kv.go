package storage

import (
	"sort"
	"strings"

	"fcatch/internal/sim"
	"fcatch/internal/trace"
)

// KV is the coordination service stand-in (ZooKeeper): a hierarchical store
// of znodes with ephemeral ownership and change watches. Znode updates are
// causal operations — update(s) c→ notify(s) c→ watcher-handler ops — which
// is how, e.g., a RegionServer's OPENED registration reaches HMaster's RIT
// map in Figure 6.
type KV struct {
	c   *sim.Cluster
	svc *sim.Node // session-expiry worker (deletes ephemerals of dead PIDs)

	znodes      map[string]*kvSlot
	dirWrites   map[string]trace.OpID
	watches     map[string][]watchReg // path -> registrations
	ephemeral   map[string][]string   // owner pid -> paths
	names       resNames
	expiryDelay int64
}

// SetSessionExpiryDelay configures how long after a process crash its
// ephemeral znodes linger before the session expires — the window in which a
// restarted process finds its predecessor's locks still standing.
func (kv *KV) SetSessionExpiryDelay(ticks int64) { kv.expiryDelay = ticks }

type kvSlot struct {
	data      sim.Value
	lastWrite trace.OpID
	owner     string // ephemeral owner pid ("" = persistent)
}

type watchReg struct {
	pid   string // watcher process
	event string // event type delivered to the watcher's event queue
	child bool   // fire on child creation/deletion too
}

// ChangeKind labels what happened to a watched znode.
type ChangeKind string

// Watch change kinds, delivered in the event payload as "<kind>:<path>".
const (
	ChangeCreated ChangeKind = "created"
	ChangeDeleted ChangeKind = "deleted"
	ChangeData    ChangeKind = "data"
	ChangeChild   ChangeKind = "child"
)

// NewKV creates the coordination service, including its session-expiry
// worker process on the dedicated "zk-svc" machine.
func NewKV(c *sim.Cluster) *KV {
	kv := &KV{
		c:         c,
		znodes:    make(map[string]*kvSlot),
		dirWrites: make(map[string]trace.OpID),
		watches:   make(map[string][]watchReg),
		ephemeral: make(map[string][]string),
		names:     newResNames("zk:"),
	}
	pid := c.StartProcess("zk-service", "zk-svc", func(ctx *sim.Context) {})
	kv.svc = c.Node(pid)
	kv.svc.HandleEvent("session-expire", func(ctx *sim.Context, payload sim.Value) {
		if kv.expiryDelay > 0 {
			ctx.Sleep(kv.expiryDelay)
		}
		kv.expireSession(ctx, payload.Str())
	})
	c.OnProcessCrash(func(dead string) {
		if len(kv.ephemeral[dead]) > 0 {
			kv.svc.PostEvent("session-expire", sim.V(dead), trace.NoOp, 0)
		}
	})
	return kv
}

func (kv *KV) res(path string) string { return kv.names.of(path) }

// Seed pre-populates a znode before the run starts (no tracing, no
// scheduling) — configuration state the workload begins with.
func (kv *KV) Seed(path string, v sim.Value) {
	kv.znodes[path] = &kvSlot{data: v}
}

// Peek inspects a znode from outside the simulation (workload checkers).
func (kv *KV) Peek(path string) (any, bool) {
	if s, ok := kv.znodes[path]; ok {
		return s.data.Data, true
	}
	return nil, false
}

// CreateOpt modifies Create.
type CreateOpt func(*createCfg)

type createCfg struct{ ephemeral bool }

// Ephemeral makes the znode die with its creator's session (process).
func Ephemeral() CreateOpt { return func(c *createCfg) { c.ephemeral = true } }

// createOptions applies opts; the config escapes to the options, so it is
// allocated only when there are any.
func createOptions(opts []CreateOpt) createCfg {
	if len(opts) == 0 {
		return createCfg{}
	}
	cfg := new(createCfg)
	for _, o := range opts {
		o(cfg)
	}
	return *cfg
}

// Create adds a znode; ErrAlreadyExists if present. A create *consumes* the
// prior existence state of the path (its record carries a define-use link to
// whatever defined it), which is how two creates can conflict — the HB2
// "Create vs Create" lock pattern. The returned value is the tainted success
// flag; guard on it so the detectors see the control dependence.
func (kv *KV) Create(ctx *sim.Context, path string, v sim.Value, opts ...CreateOpt) (sim.Value, error) {
	cfg := createOptions(opts)
	var err error
	src := kv.dirWrites[dirOf(path)]
	if s, ok := kv.znodes[path]; ok {
		src = s.lastWrite
	}
	id, _ := ctx.Do(sim.OpReq{
		Kind: trace.KKVUpdate, Res: kv.res(path), Aux: "create", Taint: v.Taint(),
		Flags: ephFlag(cfg.ephemeral), Src: src,
	}, &sim.OpEffects{
		FlagsAfter: func() uint32 {
			if err != nil {
				return trace.FlagFailed
			}
			return 0
		},
		PostEmit: func(id trace.OpID) {
			if err != nil || id == trace.NoOp {
				return
			}
			if s := kv.znodes[path]; s != nil {
				s.lastWrite = id
			}
			kv.dirWrites[dirOf(path)] = id
		},
		Apply: func() {
			if _, ok := kv.znodes[path]; ok {
				err = ErrAlreadyExists
				return
			}
			s := &kvSlot{data: v}
			if cfg.ephemeral {
				s.owner = ctx.PID()
				kv.ephemeral[s.owner] = append(kv.ephemeral[s.owner], path)
			}
			kv.znodes[path] = s
		},
	})
	ok := sim.V(err == nil)
	if id != trace.NoOp {
		ok = ok.WithTaint(id)
	}
	if err != nil {
		return ok, err
	}
	kv.fireWatches(ctx, path, ChangeCreated, id)
	return ok, nil
}

func ephFlag(e bool) uint32 {
	if e {
		return trace.FlagEphemeral
	}
	return 0
}

// SetData overwrites a znode's content; ErrNotFound if absent.
func (kv *KV) SetData(ctx *sim.Context, path string, v sim.Value) error {
	var err error
	id, _ := ctx.Do(sim.OpReq{
		Kind: trace.KKVUpdate, Res: kv.res(path), Aux: "set", Taint: v.Taint(),
	}, &sim.OpEffects{
		FlagsAfter: func() uint32 {
			if err != nil {
				return trace.FlagFailed
			}
			return 0
		},
		PostEmit: func(id trace.OpID) {
			if err != nil || id == trace.NoOp {
				return
			}
			if s := kv.znodes[path]; s != nil {
				s.lastWrite = id
			}
		},
		Apply: func() {
			s, ok := kv.znodes[path]
			if !ok {
				err = ErrNotFound
				return
			}
			s.data = v
		},
	})
	if err != nil {
		return err
	}
	kv.fireWatches(ctx, path, ChangeData, id)
	return nil
}

// Delete removes a znode; ErrNotFound if absent.
func (kv *KV) Delete(ctx *sim.Context, path string) error {
	return kv.deleteInternal(ctx, path)
}

func (kv *KV) deleteInternal(ctx *sim.Context, path string) error {
	var err error
	id, _ := ctx.Do(sim.OpReq{
		Kind: trace.KKVUpdate, Res: kv.res(path), Aux: "delete",
	}, &sim.OpEffects{
		FlagsAfter: func() uint32 {
			if err != nil {
				return trace.FlagFailed
			}
			return 0
		},
		PostEmit: func(id trace.OpID) {
			if err == nil && id != trace.NoOp {
				kv.dirWrites[dirOf(path)] = id
			}
		},
		Apply: func() {
			s, ok := kv.znodes[path]
			if !ok {
				err = ErrNotFound
				return
			}
			if s.owner != "" {
				kv.dropEphemeralRef(s.owner, path)
			}
			delete(kv.znodes, path)
		},
	})
	if err != nil {
		return err
	}
	kv.fireWatches(ctx, path, ChangeDeleted, id)
	return nil
}

func (kv *KV) dropEphemeralRef(owner, path string) {
	paths := kv.ephemeral[owner]
	for i, p := range paths {
		if p == path {
			kv.ephemeral[owner] = append(paths[:i], paths[i+1:]...)
			return
		}
	}
}

// GetData reads a znode's content.
func (kv *KV) GetData(ctx *sim.Context, path string) (sim.Value, error) {
	var out sim.Value
	var err error
	var src trace.OpID
	if s, ok := kv.znodes[path]; ok {
		src = s.lastWrite
	}
	id, _ := ctx.Do(sim.OpReq{Kind: trace.KStRead, Res: kv.res(path), Src: src}, &sim.OpEffects{Apply: func() {
		s, ok := kv.znodes[path]
		if !ok {
			err = ErrNotFound
			return
		}
		out = s.data
	}})
	if id != trace.NoOp {
		// Even a failed read yields information (the absence); the empty
		// value carries the read's taint so dependence analysis sees it.
		out = out.WithTaint(id)
	}
	if err != nil {
		return out, err
	}
	return out, nil
}

// Exists probes a znode; the result is a tainted boolean.
func (kv *KV) Exists(ctx *sim.Context, path string) sim.Value {
	var present bool
	src := kv.dirWrites[dirOf(path)]
	if s, ok := kv.znodes[path]; ok {
		src = s.lastWrite
	}
	id, _ := ctx.Do(sim.OpReq{Kind: trace.KStExists, Res: kv.res(path), Src: src},
		&sim.OpEffects{Apply: func() { _, present = kv.znodes[path] }})
	out := sim.V(present)
	if id != trace.NoOp {
		out = out.WithTaint(id)
	}
	return out
}

// Children lists the immediate children names of dir, sorted.
func (kv *KV) Children(ctx *sim.Context, dir string) []string {
	prefix := strings.TrimSuffix(dir, "/") + "/"
	var names []string
	ctx.Do(sim.OpReq{Kind: trace.KStList, Res: kv.res(dir), Src: kv.dirWrites[dir]}, &sim.OpEffects{Apply: func() {
		seen := map[string]bool{}
		for p := range kv.znodes {
			if strings.HasPrefix(p, prefix) {
				rest := strings.TrimPrefix(p, prefix)
				if i := strings.Index(rest, "/"); i >= 0 {
					rest = rest[:i]
				}
				if !seen[rest] {
					seen[rest] = true
					names = append(names, rest)
				}
			}
		}
		sort.Strings(names)
	}})
	return names
}

// Watch registers a persistent watch: any change to path (and, with child
// set, creations/deletions directly under it) posts an event of the given
// type to the watcher's event queue, carrying "<change>:<path>".
func (kv *KV) Watch(ctx *sim.Context, path, eventType string, child bool) {
	kv.watches[path] = append(kv.watches[path], watchReg{pid: ctx.PID(), event: eventType, child: child})
}

// fireWatches emits notify ops and posts watcher events for a change. Child
// watches receive "created:<path>" / "deleted:<path>" payloads so watchers
// can tell registrations from expirations. Both lists are checked before
// any notify yields, so a change nobody watches builds no payload.
func (kv *KV) fireWatches(ctx *sim.Context, path string, change ChangeKind, updateOp trace.OpID) {
	direct := kv.watches[path]
	parent := dirOf(path)
	toParent := (change == ChangeCreated || change == ChangeDeleted) && parent != path
	if len(direct) == 0 && (!toParent || len(kv.watches[parent]) == 0) {
		return
	}
	payload := string(change) + ":" + path
	kv.notifyList(ctx, direct, path, payload, updateOp, false)
	if toParent {
		kv.notifyList(ctx, kv.watches[parent], path, payload, updateOp, true)
	}
}

func (kv *KV) notifyList(ctx *sim.Context, regs []watchReg, path, payload string, updateOp trace.OpID, childOnly bool) {
	for _, w := range regs {
		if childOnly && !w.child {
			continue
		}
		dst := kv.c.Node(w.pid)
		if dst == nil || dst.Crashed() {
			continue
		}
		nid, _ := ctx.Do(sim.OpReq{
			Kind: trace.KKVNotify, Res: kv.res(path), Aux: w.event,
			Target: w.pid, Causor: updateOp,
		}, nil)
		dst.PostEvent(w.event, sim.V(payload), nid, 0)
	}
}

// expireSession deletes every ephemeral znode owned by a dead process — the
// session-expiry behaviour other nodes' recovery logic watches for.
func (kv *KV) expireSession(ctx *sim.Context, dead string) {
	paths := append([]string(nil), kv.ephemeral[dead]...)
	sort.Strings(paths)
	for _, p := range paths {
		// Each delete is attributed to the service process; watchers see
		// ordinary deletion events.
		_ = kv.deleteInternal(ctx, p)
	}
	delete(kv.ephemeral, dead)
}
