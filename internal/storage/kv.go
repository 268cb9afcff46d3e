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

	st          store
	watches     map[string][]watchReg // path -> registrations
	names       resNames
	expiryDelay int64
}

// SetSessionExpiryDelay configures how long after a process crash its
// ephemeral znodes linger before the session expires — the window in which a
// restarted process finds its predecessor's locks still standing.
func (kv *KV) SetSessionExpiryDelay(ticks int64) { kv.expiryDelay = ticks }

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
		c:       c,
		st:      newStore(),
		watches: make(map[string][]watchReg),
		names:   newResNames("zk:"),
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
		if len(kv.owned(dead)) > 0 {
			kv.svc.PostEvent("session-expire", sim.V(dead), trace.NoOp, 0)
		}
	})
	return kv
}

func (kv *KV) res(path string) string { return kv.names.of(path) }

// Seed pre-populates a znode before the run starts (no tracing, no
// scheduling) — configuration state the workload begins with.
func (kv *KV) Seed(path string, v sim.Value) {
	kv.st.slots[kv.res(path)] = &slot{data: v}
}

// Peek inspects a znode from outside the simulation (workload checkers).
func (kv *KV) Peek(path string) (any, bool) {
	if s, ok := kv.st.slots[kv.res(path)]; ok {
		return s.data.Data, true
	}
	return nil, false
}

// Create adds a znode; ErrAlreadyExists if present. A create *consumes* the
// prior existence state of the path (its record carries a define-use link to
// whatever defined it), which is how two creates can conflict — the HB2
// "Create vs Create" lock pattern. The returned value is the tainted success
// flag; guard on it so the detectors see the control dependence.
func (kv *KV) Create(ctx *sim.Context, path string, v sim.Value) (sim.Value, error) {
	return kv.create(ctx, path, v, "")
}

// CreateEphemeral is Create of a znode that dies with its creator's session
// (process).
func (kv *KV) CreateEphemeral(ctx *sim.Context, path string, v sim.Value) (sim.Value, error) {
	return kv.create(ctx, path, v, ctx.PID())
}

func (kv *KV) create(ctx *sim.Context, path string, v sim.Value, owner string) (sim.Value, error) {
	o := op{eff: eCreate, kind: trace.KKVUpdate, aux: "create", res: kv.res(path), dir: kv.res(dirOf(path)), v: v, owner: owner}
	if owner != "" {
		o.flags = trace.FlagEphemeral
	}
	id, err := kv.st.do(ctx, &o)
	if err == nil {
		kv.fireWatches(ctx, path, ChangeCreated, id)
	}
	return o.out, err
}

// SetData overwrites a znode's content; ErrNotFound if absent.
func (kv *KV) SetData(ctx *sim.Context, path string, v sim.Value) error {
	id, err := kv.st.do(ctx, &op{eff: eSet, kind: trace.KKVUpdate, aux: "set", res: kv.res(path), v: v})
	if err == nil {
		kv.fireWatches(ctx, path, ChangeData, id)
	}
	return err
}

// Delete removes a znode; ErrNotFound if absent.
func (kv *KV) Delete(ctx *sim.Context, path string) error {
	id, err := kv.st.do(ctx, &op{eff: eDelete, kind: trace.KKVUpdate, aux: "delete", res: kv.res(path), dir: kv.res(dirOf(path))})
	if err == nil {
		kv.fireWatches(ctx, path, ChangeDeleted, id)
	}
	return err
}

// GetData reads a znode's content; ErrNotFound if absent.
func (kv *KV) GetData(ctx *sim.Context, path string) (sim.Value, error) {
	return kv.st.read(ctx, kv.res(path))
}

// Exists probes a znode; the result is a tainted boolean.
func (kv *KV) Exists(ctx *sim.Context, path string) sim.Value {
	return kv.st.exists(ctx, kv.res(path), kv.res(dirOf(path)))
}

// Children lists the immediate children names of dir, sorted.
func (kv *KV) Children(ctx *sim.Context, dir string) []string {
	prefix := kv.res(strings.TrimSuffix(dir, "/") + "/")
	var names []string
	seen := map[string]bool{}
	for _, res := range kv.st.list(ctx, kv.res(dir), prefix) {
		child, _, _ := strings.Cut(res[len(prefix):], "/")
		if !seen[child] {
			seen[child] = true
			names = append(names, child)
		}
	}
	sort.Strings(names)
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
		nid, _ := kv.st.do(ctx, &op{eff: eNotify, kind: trace.KKVNotify, aux: w.event, target: w.pid, causor: updateOp, res: kv.res(path)})
		dst.PostEvent(w.event, sim.V(payload), nid, 0)
	}
}

// owned returns the paths of dead's ephemeral znodes, sorted.
func (kv *KV) owned(dead string) []string {
	var paths []string
	for res, s := range kv.st.slots {
		if s.owner == dead {
			paths = append(paths, res[len(kv.names.prefix):])
		}
	}
	sort.Strings(paths)
	return paths
}

// expireSession deletes every ephemeral znode owned by a dead process — the
// session-expiry behaviour other nodes' recovery logic watches for. Each
// delete is attributed to the service process; watchers see ordinary
// deletion events.
func (kv *KV) expireSession(ctx *sim.Context, dead string) {
	for _, p := range kv.owned(dead) {
		_ = kv.Delete(ctx, p)
	}
}
