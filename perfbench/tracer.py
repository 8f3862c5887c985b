"""Span tracer that wraps the public functions of each prymspin module from
outside the package.

Every wrapped call records a span (name, start, end, parent) in flat arrays
kept in memory; ``summary`` turns them into per-layer self times, call
counts and exact problem sizes when the operation ends.  Wrappers replace
the original function at every module-level alias inside ``prymspin`` (for
example ``rref`` imported by name into ``symmetry``, ``presentations`` and
``pushpull``), and ``uncovered_aliases`` reports any alias that was missed.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import Counter
from time import perf_counter

# (module, attribute path, layer): the calls each layer is measured at.
TARGETS = [
    ("exact_linear", "rref", "exact_linear.rref"),
    ("exact_linear", "solve", "exact_linear.solve"),
    ("exact_linear", "SparseEchelon.add_row", "exact_linear.sparse"),
    ("exact_linear", "SparseEchelon.finish", "exact_linear.sparse"),
    ("keel_ring", "GradedBasis.__init__", "keel_ring.build"),
    ("keel_ring", "GradedBasis.reduce", "keel_ring.reduce"),
    ("keel_ring", "GradedBasis.multiply", "keel_ring.multiply"),
    ("symmetry", "act", "symmetry.act"),
    ("symmetry", "invariant_basis", "symmetry.invariant_basis"),
    ("symmetry", "standard_group", "symmetry.standard_group"),
    ("pushpull", "push_to_base", "pushpull.push_to_base"),
    ("pushpull", "intersection_table", "pushpull.intersection_table"),
    ("pushpull", "verify_lambda_identities", "pushpull.lambda"),
    ("pushpull", "NamedCombo.evaluate", "pushpull.evaluate"),
    ("presentations", "hilbert_function", "presentations.hilbert"),
    ("presentations", "independence_check", "presentations.independence"),
    ("presentations", "evaluate_in_ring", "presentations.evaluate_in_ring"),
    ("space_registry", "load_space", "space_registry.load"),
    ("space_registry", "SpaceDescriptor.named_class",
     "space_registry.named_class"),
    ("strata_aut", "count_marked_automorphisms", "strata_aut.count_aut"),
    ("strata_aut", "prym_aut_number", "strata_aut.prym_aut"),
    ("strata_aut", "fiber_count", "strata_aut.fiber_count"),
    ("theta_f2", "verify_bijections", "theta_f2.verify_bijections"),
    ("cli", "Report.render_markdown", "cli.render"),
    ("cli", "Report.render_json", "cli.render"),
]

# The per-layer metrics a traced run reports, with unit and direction.
# ``.s`` is self time: the span's duration minus the wrapped calls inside it.
LAYER_METRICS = [
    ("exact_linear.rref.calls", "count", "lower"),
    ("exact_linear.rref.s", "s", "lower"),
    ("exact_linear.rref.entries", "count", "lower"),
    ("exact_linear.rref.rank_ratio", "ratio", "higher"),
    ("exact_linear.sparse.rows", "count", "lower"),
    ("exact_linear.sparse.s", "s", "lower"),
    ("exact_linear.sparse.pivot_ratio", "ratio", "higher"),
    ("exact_linear.solve.calls", "count", "lower"),
    ("exact_linear.solve.s", "s", "lower"),
    ("keel_ring.build.s", "s", "lower"),
    ("keel_ring.build.dims", "count", "lower"),
    ("keel_ring.reduce.calls", "count", "lower"),
    ("keel_ring.reduce.s", "s", "lower"),
    ("keel_ring.reduce.terms", "count", "lower"),
    ("keel_ring.multiply.calls", "count", "lower"),
    ("keel_ring.multiply.s", "s", "lower"),
    ("symmetry.act.calls", "count", "lower"),
    ("symmetry.act.s", "s", "lower"),
    ("symmetry.invariant_basis.calls", "count", "lower"),
    ("symmetry.invariant_basis.s", "s", "lower"),
    ("pushpull.push_to_base.calls", "count", "lower"),
    ("pushpull.push_to_base.s", "s", "lower"),
    ("pushpull.act_per_push", "count", "lower"),
    ("pushpull.intersection_table.s", "s", "lower"),
    ("pushpull.lambda.s", "s", "lower"),
    ("pushpull.evaluate.calls", "count", "lower"),
    ("presentations.hilbert.s", "s", "lower"),
    ("presentations.hilbert.rows", "count", "lower"),
    ("presentations.independence.s", "s", "lower"),
    ("presentations.evaluate_in_ring.calls", "count", "lower"),
    ("presentations.evaluate_in_ring.s", "s", "lower"),
    ("space_registry.load.calls", "count", "lower"),
    ("space_registry.load.s", "s", "lower"),
    ("space_registry.named_class.calls", "count", "lower"),
    ("space_registry.named_class.s", "s", "lower"),
    ("strata_aut.count_aut.calls", "count", "lower"),
    ("strata_aut.count_aut.s", "s", "lower"),
    ("strata_aut.prym_aut.calls", "count", "lower"),
    ("strata_aut.prym_aut.s", "s", "lower"),
    ("strata_aut.fiber_count.s", "s", "lower"),
    ("theta_f2.verify_bijections.s", "s", "lower"),
    ("cli.render.s", "s", "lower"),
    ("cli.stdout_bytes", "count", "lower"),
]


def _resolve(obj, path):
    *owners, attr = path.split(".")
    for name in owners:
        obj = getattr(obj, name)
    return obj, attr


class Tracer:
    """Holds the spans and counters of one traced process."""

    def __init__(self):
        self.layer_ids: dict[str, int] = {}
        self.layers: list[str] = []
        self.names = array("l")
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: list[int] = []
        self.counters: Counter = Counter()   # summed sizes, e.g. rows fed
        self.sizes: Counter = Counter()      # exact problem-size signatures
        self._sparse: dict[int, list[int]] = {}
        self.originals: dict[int, object] = {}

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap every target and patch every alias of it inside prymspin."""
        modules = [m for name, m in list(sys.modules.items())
                   if name.startswith("prymspin.") and m is not None]
        for mod_name, path, layer in TARGETS:
            owner, attr = _resolve(sys.modules[f"prymspin.{mod_name}"], path)
            original = owner.__dict__[attr]
            wrapper = self._wrap(original, layer, _HOOKS.get(path))
            self.originals[id(original)] = original
            setattr(owner, attr, wrapper)
            if "." not in path:
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, name, wrapper)

    def uncovered_aliases(self) -> list[str]:
        """Module attributes inside prymspin that still hold an unwrapped
        target; empty when every alias was patched."""
        out = []
        for name, mod in list(sys.modules.items()):
            if not name.startswith("prymspin.") or mod is None:
                continue
            for attr, value in vars(mod).items():
                if id(value) in self.originals and value is self.originals[id(value)]:
                    out.append(f"{name}.{attr}")
        return out

    def _wrap(self, fn, layer, hook):
        if layer not in self.layer_ids:
            self.layer_ids[layer] = len(self.layers)
            self.layers.append(layer)
        nid = self.layer_ids[layer]
        names, parents, starts, ends, stack = (
            self.names, self.parents, self.starts, self.ends, self.stack)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(tracer, args, result)
                return result
            finally:
                ends[idx] = perf_counter()
                starts[idx] = t0
                stack.pop()
        return wrapper

    def context(self) -> str:
        """Nearest enclosing layer outside exact_linear, naming the caller
        of an echelon call in its size signature."""
        for idx in reversed(self.stack[:-1]):
            layer = self.layers[self.names[idx]]
            if not layer.startswith("exact_linear."):
                return layer
        return "top"

    # -- results ------------------------------------------------------------

    def summary(self) -> dict:
        """Self time and calls per layer, summed counters, exact sizes."""
        n = len(self.names)
        names, parents, starts, ends = (
            self.names, self.parents, self.starts, self.ends)
        child_time = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child_time[p] += ends[i] - starts[i]
        self_time = [0.0] * len(self.layers)
        calls = [0] * len(self.layers)
        act = self.layer_ids.get("symmetry.act")
        push = self.layer_ids.get("pushpull.push_to_base")
        acts_under: dict[int, int] = {}
        for i in range(n):
            nid = names[i]
            self_time[nid] += ends[i] - starts[i] - child_time[i]
            calls[nid] += 1
            if nid == act and parents[i] >= 0 and names[parents[i]] == push:
                acts_under[parents[i]] = acts_under.get(parents[i], 0) + 1
        sizes = Counter(self.sizes)
        for i in range(n):
            if names[i] == push:
                sizes[f"pushpull.push_to_base acts {acts_under.get(i, 0)}"] += 1
        counters = Counter(self.counters)
        counters["pushpull.acts_in_push"] += sum(acts_under.values())
        for layer, nid in self.layer_ids.items():
            counters[f"{layer}.calls"] += calls[nid]
            counters[f"{layer}.s"] += self_time[nid]
        return {"spans": n, "counters": dict(counters), "sizes": dict(sizes)}


# -- size hooks: exact problem sizes recorded at the layer boundary ----------

def _rref_hook(tr: Tracer, args, result):
    m = args[0]
    rank = len(result[1])
    tr.counters["exact_linear.rref.rows"] += m.nrows
    tr.counters["exact_linear.rref.rank"] += rank
    tr.counters["exact_linear.rref.entries"] += m.nrows * m.ncols
    ctx = tr.context()
    if ctx == "presentations.hilbert":
        tr.counters["presentations.hilbert.rows"] += m.nrows
    tr.sizes[f"exact_linear.rref [{ctx}] {m.nrows}x{m.ncols} rank {rank}"] += 1


def _add_row_hook(tr: Tracer, args, added):
    ech, row = args[0], args[1]
    stats = tr._sparse.setdefault(id(ech), [0, 0, 0])
    stats[0] += 1
    stats[1] += bool(added)
    if row:
        stats[2] = max(stats[2], max(row) + 1)
    tr.counters["exact_linear.sparse.rows"] += 1
    tr.counters["exact_linear.sparse.pivots"] += bool(added)


def _finish_hook(tr: Tracer, args, result):
    rows, pivots, width = tr._sparse.pop(id(args[0]), [0, 0, 0])
    tr.sizes[f"exact_linear.sparse [{tr.context()}] {rows} rows, width "
             f"{width}, rank {pivots}"] += 1


def _build_hook(tr: Tracer, args, result):
    gb = args[0]
    dims = gb.dims()
    tr.counters["keel_ring.build.dims"] += sum(dims)
    tr.sizes[f"keel_ring.dims n={gb.n}: {' '.join(map(str, dims))}"] += 1


def _reduce_hook(tr: Tracer, args, result):
    tr.counters["keel_ring.reduce.terms"] += len(args[1].coeffs)


def _group_hook(tr: Tracer, args, group):
    tr.sizes[f"symmetry.group_order {args[0]}: {group.order}"] += 1


_HOOKS = {
    "rref": _rref_hook,
    "SparseEchelon.add_row": _add_row_hook,
    "SparseEchelon.finish": _finish_hook,
    "GradedBasis.__init__": _build_hook,
    "GradedBasis.reduce": _reduce_hook,
    "standard_group": _group_hook,
}


def layer_metrics(counters: dict) -> dict[str, float]:
    """The LAYER_METRICS values from counters summed over traced processes;
    ratios are taken of the sums."""
    c = Counter(counters)

    def ratio(num, den):
        return c[num] / c[den] if c[den] else 0.0

    derived = {
        "exact_linear.rref.rank_ratio": ratio("exact_linear.rref.rank",
                                              "exact_linear.rref.rows"),
        "exact_linear.sparse.pivot_ratio": ratio("exact_linear.sparse.pivots",
                                                 "exact_linear.sparse.rows"),
        "pushpull.act_per_push": ratio("pushpull.acts_in_push",
                                       "pushpull.push_to_base.calls"),
    }
    return {name: derived.get(name, c[name]) for name, _, _ in LAYER_METRICS}
