"""Per-layer tracing of `coidem`, installed from outside the package.

Each traced function is wrapped by identity: every attribute of a loaded
`coidem.*` module that is the original object is rebound to the wrapper, and
so are the values of `predicates._WITNESS_IDEALS`.  Methods are replaced on
their class and `cached_property` members get a new descriptor around
`.func`.  Nothing under `src/` is edited.

Every wrapped call adds to its name's `calls`, `self_s` (duration minus the
durations of wrapped calls made inside it) and `total_s` (outermost activation
only, so recursion is not counted twice).  Coarse boundaries (one operation,
`run_check`, witness validation, enumeration) also keep a span with a parent
link; hot leaves (`FinModule.scale`, `in_rowspan`) keep only counts and time.
"""

from __future__ import annotations

import sys
import time
from functools import cached_property

from coidem import cli, intmat, lattice, modules, multsets, predicates, rings, specs, theorems

clock = time.perf_counter

# name -> ((owner, attribute), ...), the functions aggregated under that name
TRACED = {
    "intmat.hnf": ((intmat, "hnf"),),
    "intmat.multiple_order": ((intmat, "multiple_order"),),
    "intmat.lattice_intersect": ((intmat, "lattice_intersect"),),
    "intmat.smith_normal_form": ((intmat, "smith_normal_form"),),
    "intmat.in_rowspan": ((intmat, "in_rowspan"),),
    "rings.all_ideals": ((rings, "all_ideals"),),
    "rings.divisors": ((rings, "divisors"),),
    "rings.units": ((rings, "units"),),
    "multsets.MultSet.init": ((multsets.MultSet, "__post_init__"),),
    "multsets.reduce_presentation": ((multsets, "reduce_presentation"),),
    "multsets.closure_in_ring": ((multsets, "closure_in_ring"),),
    "multsets.meets_ideal": ((multsets, "meets_ideal"),),
    "modules.FinModule.scale": ((modules.FinModule, "scale"),),
    "modules.sub_leq": ((modules, "sub_leq"),),
    "modules.colon_ring": ((modules, "colon_ring"),),
    "modules.sub_intersect": ((modules, "sub_intersect"),),
    "lattice.enumerate_submodules": ((lattice, "enumerate_submodules"),),
    "lattice.leq": ((lattice.SubmoduleLattice, "leq"),),
    "lattice.covers": ((lattice.SubmoduleLattice, "covers"),),
    "predicates.witness_ideal": tuple(
        (predicates, f.__name__) for f in predicates._WITNESS_IDEALS.values()
    ),
    "predicates.witness_is_sound": ((predicates, "witness_is_sound"),),
    "theorems.validate": ((theorems, "_validate_instance_witnesses"),),
    "theorems.run_check": ((theorems, "run_check"),),
    "cli.main": ((cli, "main"),),
    "specs.parse": tuple(
        (specs, f) for f in ("parse_ring", "parse_module", "parse_multset", "parse_submodule")
    ),
}
# leaves call no traced function, so they skip the child-time bookkeeping
LEAVES = {"modules.FinModule.scale", "intmat.in_rowspan"}
SPANS = {"lattice.enumerate_submodules", "theorems.validate", "theorems.run_check"}

# functools caches read with cache_info() after a traced run
CACHES = {
    "predicates.witness_ideal": tuple(predicates._WITNESS_IDEALS.values()),
    "theorems.cache": (
        theorems._fully, theorems._comult, theorems._mult, theorems._semisimple, theorems._ann,
    ),
    "lattice.p_component": (lattice._p_component_bases_cached,),
}


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, self_s, total_s, active]
        self.child = [0.0]  # time spent in traced callees, one slot per open call
        self.spans: list[tuple] = []  # (id, parent id, name, start, end)
        self.open_spans = [-1]
        self.sound_keys: set = set()
        self.sound_skipped = 0
        self._undo: list[tuple] = []

    def _stat(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0, 0.0, 0])

    def _node(self, name, fn, span=False, key=None):
        child, stats, spans, open_spans = self.child, self.stats, self.spans, self.open_spans
        fixed = self._stat(name) if key is None else None

        def traced(*args, **kwargs):
            label = name if key is None else key(args)
            st = fixed if key is None else stats.setdefault(label, [0, 0.0, 0.0, 0])
            st[0] += 1
            st[3] += 1
            child.append(0.0)
            if span:
                sid = len(spans)
                spans.append(None)
                open_spans.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                dt = end - start
                st[1] += dt - child.pop()
                st[3] -= 1
                if not st[3]:
                    st[2] += dt
                child[-1] += dt
                if span:
                    open_spans.pop()
                    spans[sid] = (sid, open_spans[-1], label, start, end)

        return traced

    def _leaf(self, name, fn):
        child = self.child
        st = self._stat(name)

        def traced(*args):
            start = clock()
            out = fn(*args)
            dt = clock() - start
            st[0] += 1
            st[1] += dt
            st[2] += dt
            child[-1] += dt
            return out

        return traced

    def span(self, name: str, fn, *args):
        """Run fn(*args) as a traced root call under `name` (one operation)."""
        return self._node(name, fn, span=True)(*args)

    def _witness_is_sound(self, fn):
        def observed(prop, m, n, verdict):
            if verdict.holds:
                self.sound_keys.add((prop, n, verdict.witness))
                if m.order > 4096:
                    self.sound_skipped += 1
            return fn(prop, m, n, verdict)

        return observed

    def _wrapper(self, name, fn):
        if name in LEAVES:
            return self._leaf(name, fn)
        key = None
        if name == "theorems.run_check":  # counted per theorem, as theorems.T01 ...
            key = lambda args: f"theorems.{args[0].id}"
        if name == "predicates.witness_is_sound":
            fn = self._witness_is_sound(fn)
        return self._node(name, fn, span=name in SPANS, key=key)

    def install(self):
        loaded = [m for k, m in sys.modules.items() if k == "coidem" or k.startswith("coidem.")]
        for name, targets in TRACED.items():
            for owner, attr in targets:
                orig = owner.__dict__[attr]
                if isinstance(orig, cached_property):
                    new = cached_property(self._wrapper(name, orig.func))
                    new.__set_name__(owner, attr)
                    self._rebind(owner, attr, orig, new)
                    continue
                new = self._wrapper(name, orig)
                if isinstance(owner, type):
                    self._rebind(owner, attr, orig, new)
                    continue
                for mod in loaded:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            self._rebind(mod, key, orig, new)
                for key, value in predicates._WITNESS_IDEALS.items():
                    if value is orig:
                        predicates._WITNESS_IDEALS[key] = new
                        self._undo.append((predicates._WITNESS_IDEALS, key, orig, True))

    def _rebind(self, owner, attr, orig, new):
        setattr(owner, attr, new)
        self._undo.append((owner, attr, orig, False))

    def uninstall(self):
        for owner, attr, orig, is_dict in reversed(self._undo):
            if is_dict:
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)
        self._undo.clear()

    def summary(self) -> dict:
        """Aggregates, cache ratios and witness-check waste, as plain JSON."""
        out = {
            name: {"calls": c, "self_s": s, "total_s": t}
            for name, (c, s, t, _) in self.stats.items()
        }
        for name, fns in CACHES.items():
            infos = [f.cache_info() for f in fns]
            hits = sum(i.hits for i in infos)
            looked = hits + sum(i.misses for i in infos)
            out.setdefault(name, {})["hit_rate"] = hits / looked if looked else 0.0
        sound = out.setdefault("predicates.witness_is_sound", {"calls": 0})
        sound["distinct_frac"] = len(self.sound_keys) / sound["calls"] if sound["calls"] else 0.0
        sound["skipped"] = self.sound_skipped
        return out


# the traced names each full-size workload must call at least once; together
# they cover every traced name, so a renamed or inlined function fails loudly
# instead of reporting 0 s
EXERCISED = {
    "harness": (
        "intmat.hnf", "intmat.multiple_order", "intmat.lattice_intersect",
        "intmat.smith_normal_form", "intmat.in_rowspan", "rings.all_ideals",
        "rings.divisors", "rings.units", "multsets.MultSet.init",
        "multsets.closure_in_ring", "multsets.meets_ideal", "modules.FinModule.scale",
        "modules.sub_leq", "modules.colon_ring", "modules.sub_intersect",
        "lattice.enumerate_submodules", "lattice.leq", "lattice.covers",
        "predicates.witness_ideal", "predicates.witness_is_sound", "theorems.validate",
        *(f"theorems.T{i:02d}" for i in range(1, 21)),
    ),
    "lattice": (
        "intmat.hnf", "intmat.in_rowspan", "modules.sub_leq", "lattice.enumerate_submodules",
        "lattice.leq", "lattice.covers", "cli.main", "specs.parse",
    ),
    "check": (
        "multsets.MultSet.init", "multsets.reduce_presentation", "multsets.closure_in_ring",
        "multsets.meets_ideal", "predicates.witness_ideal", "rings.all_ideals",
        "rings.divisors", "cli.main", "specs.parse",
    ),
}
_NAMES = (set(TRACED) - {"theorems.run_check"}) | {f"theorems.T{i:02d}" for i in range(1, 21)}
if set().union(*EXERCISED.values()) != _NAMES:
    raise RuntimeError(f"traced names no workload reaches: {_NAMES - set().union(*EXERCISED.values())}")


def unreached(workload: str, size: str, summary: dict) -> list[str]:
    if size != "full":
        return []
    return [
        f"{name}: traced but never called"
        for name in EXERCISED[workload]
        if not summary.get(name, {}).get("calls")
    ]
