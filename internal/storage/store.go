// Package storage provides the persistent substrates of the simulated world:
// per-machine local file systems (survive process crashes), a global file
// system (the HDFS stand-in), and a watchable key-value store (the ZooKeeper
// stand-in). These are the paper's second resource type (Section 3.2):
// "persistent data in file systems, key-value stores, etc." — every access
// is traced with create/delete/read/write/rename/check-if-exist op kinds.
// All three are one store: slots keyed by trace resource name, whose every
// op runs through store.do.
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

// slot is one stored object: its content, the op that last wrote it (a
// later read's define-use link), and the process whose session owns it (""
// for a persistent object; only KV's ephemeral znodes have an owner).
type slot struct {
	data      sim.Value
	lastWrite trace.OpID
	owner     string
}

// store holds the slots, keyed by trace resource name, and each directory
// resource's last structural change: the define-use link of a list, and of
// a create or exists that finds no slot.
type store struct {
	slots map[string]*slot
	dirs  map[string]trace.OpID
}

func newStore() store {
	return store{slots: make(map[string]*slot), dirs: make(map[string]trace.OpID)}
}

// effect is what an op does to the store. The first three yield a value,
// which carries the op's ID.
type effect uint8

const (
	eRead   effect = iota // yield the content; fails if absent
	eExists               // yield whether the slot is present
	eCreate               // add the slot and yield success; fails if present
	eList                 // collect the slot names under prefix, sorted
	eWrite                // store v, adding the slot if absent
	eAppend               // append v to the content, adding the slot if absent
	eSet                  // store v; fails if absent
	eDelete               // remove the slot; fails if absent
	eDrop                 // remove the slot if present (a recursive delete's unlink)
	eRename               // move the slot to to; fails if absent
	eNotify               // none: a watch's notification of a change
)

// op is one storage op: the record it emits (kind, aux, flags, target,
// causor, res, and v's taint), what it does, and, once done, its results.
type op struct {
	eff    effect
	kind   trace.Kind
	aux    string
	flags  uint32
	target string     // a notify's watcher
	causor trace.OpID // a notify's update
	res    string     // the slot (a list's directory)
	dir    string     // the slot's directory ("" for none)
	to     string     // a rename's target slot
	prefix string     // a list's name prefix
	v      sim.Value  // the content a create, write, append or set stores
	owner  string     // a create's ephemeral owner

	out     sim.Value // the value a read, exists or create yields
	names   []string  // a list's slot names
	wrote   *slot     // the slot whose content the op defined
	changed bool      // the op changed its directory's membership
}

// do runs o through ctx.Do, the one path every storage op takes. o's effect
// is applied atomically with its record, and Do flags the record failed
// when the effect returns an error. A traced op that succeeded is published
// as the last write of the slot it wrote and as the last change of the
// directory whose membership it changed.
func (s *store) do(ctx *sim.Context, o *op) (trace.OpID, error) {
	var err error
	id, _ := ctx.Do(sim.OpReq{
		Kind: o.kind, Res: o.res, Aux: o.aux, Target: o.target, Causor: o.causor, Flags: o.flags,
		Taint: o.v.Taint(), Src: s.src(o),
	}, &sim.OpEffects{
		Apply: func() error {
			err = s.apply(o)
			return err
		},
		PostEmit: func(id trace.OpID) {
			if err != nil || id == trace.NoOp {
				return
			}
			if o.wrote != nil {
				o.wrote.lastWrite = id
			}
			if o.changed && o.dir != "" {
				s.dirs[o.dir] = id
			}
		},
	})
	if o.eff <= eCreate && id != trace.NoOp {
		// Even a failed read or create yields information (the absence or
		// presence it found), so its value carries the op too.
		o.out = o.out.WithTaint(id)
	}
	return id, err
}

// src is o's define-use link: a read names the write that defined the
// content it finds, a create or exists names that write too or, finding no
// slot, the directory change that decided the absence, and a list names its
// directory's last change.
func (s *store) src(o *op) trace.OpID {
	switch o.eff {
	case eRead, eExists, eCreate:
		if sl := s.slots[o.res]; sl != nil {
			return sl.lastWrite
		}
		if o.eff != eRead {
			return s.dirs[o.dir]
		}
	case eList:
		return s.dirs[o.res]
	}
	return trace.NoOp
}

// apply performs o's effect and returns its error.
func (s *store) apply(o *op) error {
	sl := s.slots[o.res]
	switch o.eff {
	case eRead:
		if sl == nil {
			return ErrNotFound
		}
		o.out = sl.data
	case eExists:
		o.out = sim.V(sl != nil)
	case eCreate:
		o.out = sim.V(sl == nil)
		if sl != nil {
			return ErrAlreadyExists
		}
		o.wrote = &slot{data: o.v, owner: o.owner}
		s.slots[o.res] = o.wrote
		o.changed = true
	case eList:
		for res := range s.slots {
			if strings.HasPrefix(res, o.prefix) {
				o.names = append(o.names, res)
			}
		}
		sort.Strings(o.names)
	case eWrite, eAppend:
		if sl == nil {
			sl = &slot{}
			s.slots[o.res] = sl
			o.changed = true
		}
		switch prev, _ := sl.data.Data.(string); {
		case o.eff == eWrite:
			sl.data = o.v
		case prev != "":
			sl.data = sim.Derive(prev+","+o.v.Str(), sl.data, o.v)
		default:
			sl.data = sim.Derive(o.v.Str(), o.v)
		}
		o.wrote = sl
	case eSet:
		if sl == nil {
			return ErrNotFound
		}
		sl.data = o.v
		o.wrote = sl
	case eDelete, eDrop:
		if sl == nil && o.eff == eDelete {
			return ErrNotFound
		}
		delete(s.slots, o.res)
		o.changed = true
	case eRename:
		if sl == nil {
			return ErrNotFound
		}
		delete(s.slots, o.res)
		s.slots[o.to] = sl
		o.wrote, o.changed = sl, true
	}
	return nil
}

// read is a read of res (a file read, a znode's GetData).
func (s *store) read(ctx *sim.Context, res string) (sim.Value, error) {
	o := op{eff: eRead, kind: trace.KStRead, res: res}
	_, err := s.do(ctx, &o)
	return o.out, err
}

// exists probes res, whose directory is dir.
func (s *store) exists(ctx *sim.Context, res, dir string) sim.Value {
	o := op{eff: eExists, kind: trace.KStExists, res: res, dir: dir}
	s.do(ctx, &o)
	return o.out
}

// list is a list of directory res: the sorted slot names under prefix (one
// directory level is not enforced; callers filter).
func (s *store) list(ctx *sim.Context, res, prefix string) []string {
	o := op{eff: eList, kind: trace.KStList, res: res, prefix: prefix}
	s.do(ctx, &o)
	return o.names
}

func dirOf(path string) string {
	i := strings.LastIndex(path, "/")
	if i <= 0 {
		return "/"
	}
	return path[:i]
}

// resNames is one namespace's path -> trace resource name map: each name is
// built once, so an op on a known path builds no string and keeps the
// caller's path where the caller built it.
type resNames struct {
	prefix string
	m      map[string]string // name[len(prefix):] -> name
}

func newResNames(prefix string) resNames {
	return resNames{prefix: prefix, m: make(map[string]string)}
}

func (n resNames) of(path string) string {
	if r, ok := n.m[path]; ok {
		return r
	}
	r := n.prefix + path
	n.m[r[len(n.prefix):]] = r // the name's own suffix: no second copy of path
	return r
}
