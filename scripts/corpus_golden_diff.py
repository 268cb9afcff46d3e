#!/usr/bin/env python3
"""Compare each regenerated testdata/golden/*.corpus.json with the parent's:
index, signature, verdict, novel equal; new plan == parent first event + then."""
import json, glob, os, sys
parent, child = sys.argv[1], sys.argv[2]
ok = True
for path in sorted(glob.glob(os.path.join(child, "testdata/golden/*.corpus.json"))):
    name = os.path.basename(path)
    new = json.load(open(path))
    old = json.load(open(os.path.join(parent, "testdata/golden", name)))
    top_old = {k: v for k, v in old.items() if k not in ("entries", "version")}
    top_new = {k: v for k, v in new.items() if k not in ("entries", "version")}
    bad = []
    if top_old != top_new: bad.append("identity")
    if new.get("version") != 3: bad.append("version")
    if len(old["entries"]) != len(new["entries"]): bad.append("entry count")
    for eo, en in zip(old["entries"], new["entries"]):
        for k in ("index", "signature", "verdict", "novel"):
            if eo.get(k) != en.get(k): bad.append("entry %d %s" % (eo["index"], k))
        po = dict(eo["plan"]); then = po.pop("then", [])
        if [po] + then != en["plan"]: bad.append("entry %d plan" % eo["index"])
        if set(en) - {"index", "plan", "signature", "verdict", "novel"}: bad.append("entry %d extra keys" % eo["index"])
    print("%-20s version %s -> %s, %3d entries: %s" % (name, old.get("version", "absent"), new["version"], len(new["entries"]), "index/signature/verdict/novel equal, plan == [first event] + then" if not bad else "DIFFERS: " + ", ".join(bad)))
    ok = ok and not bad
sys.exit(0 if ok else 1)
