#!/usr/bin/env python3
"""Review a deliberate regeneration of testdata/golden/*.corpus.json.

usage: corpus_golden_diff.py <parent-checkout> <child-checkout> [field ...]

Compares every corpus golden with the parent's, entry by entry, and prints per
file which leaf fields differ and in how many entries. Exits 1 when a field
not named on the command line differs (no names: the files must be equal), so
`corpus_golden_diff.py parent . coverage` accepts a regeneration that moved
coverage hashes and nothing else.
"""
import glob, json, os, sys


def leaves(v, path=""):
    """Flatten JSON to {path: scalar}; list indices are part of the path."""
    if isinstance(v, dict):
        for k, x in v.items():
            yield from leaves(x, path + "/" + k)
    elif isinstance(v, list):
        for i, x in enumerate(v):
            yield from leaves(x, "%s/%d" % (path, i))
    else:
        yield path, v


parent, child, allowed = sys.argv[1], sys.argv[2], set(sys.argv[3:])
ok = True
for path in sorted(glob.glob(os.path.join(child, "testdata/golden/*.corpus.json"))):
    name = os.path.basename(path)
    new = json.load(open(path))
    old = json.load(open(os.path.join(parent, "testdata/golden", name)))
    eo, en = old.pop("entries"), new.pop("entries")
    bad = []
    if old != new:
        bad.append("header")
    if len(eo) != len(en):
        bad.append("entry count")
    moved = {}  # leaf field name -> entries it differs in
    for a, b in zip(eo, en):
        la, lb = dict(leaves(a)), dict(leaves(b))
        for p in set(la) | set(lb):
            if la.get(p) != lb.get(p):
                moved.setdefault(p.rsplit("/", 1)[1], set()).add(a["index"])
    bad += sorted(f for f in moved if f not in allowed)
    what = ", ".join("%s in %d" % (f, len(ix)) for f, ix in sorted(moved.items())) or "identical"
    print("%-20s %3d entries: %s%s" % (name, len(en), what, "  NOT ALLOWED: " + ", ".join(bad) if bad else ""))
    ok = ok and not bad
sys.exit(0 if ok else 1)
