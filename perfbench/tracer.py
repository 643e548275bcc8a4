"""Span tracer that wraps the public functions of restrictlab's layers.

Spans live in memory as tuples and are written out when the run ends.  A
wrapper replaces every binding of a wrapped function in every restrictlab
module, including names copied by `from ... import`; runner-local imports in
`cli` resolve at call time and so pick the wrappers up too.  Counters are
computed at the same boundaries by hooks, which run inside their own
`bench.counters` span so their cost never lands in a layer's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np
from restrictlab import geometry, hecke

LAYERS = ("measures", "frequency", "geometry", "spherical", "hecke",
          "integrals", "modes", "cli")

# span tuple fields
SID, PARENT, NAME, JOB, START, END, ERROR, NESTED = range(8)

# integrals.support_frac samples SUPPORT_SAMPLE x SUPPORT_SAMPLE grid pairs
# of each eval_I_pair call, evenly spaced along both axes
SUPPORT_SAMPLE = 64


class Tracer:
    """Records (id, parent, name, job, start, end, error, nested) spans."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.job = None
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._next = 0
        self._seen_enumerations: set = set()
        self.originals: dict = {}     # span name -> unwrapped function
        self._hooks = {
            "integrals.eval_I_pair": _count_eval_pair,
            "spherical.make_kernel": _count_kernel,
            "measures.build_weight": _count_weight,
            "hecke.enumerate_norm_n": _count_enumeration,
            "cli.run_experiment": _count_csv,
        }

    def _open(self, name: str):
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        nested = self._active[name] > 0
        self._stack.append(sid)
        self._active[name] += 1
        return sid, parent, nested

    def _close(self, sid, parent, name, nested, t0, error) -> None:
        t1 = perf_counter()
        self._stack.pop()
        self._active[name] -= 1
        self.spans.append((sid, parent, name, self.job, t0, t1, error, nested))

    @contextmanager
    def span(self, name: str):
        sid, parent, nested = self._open(name)
        t0 = perf_counter()
        error = True
        try:
            yield
            error = False
        finally:
            self._close(sid, parent, name, nested, t0, error)

    @contextmanager
    def job_span(self, job: str):
        """Root span of one job; every span opened inside carries `job`."""
        self.job = job
        try:
            with self.span("bench.job"):
                yield
        finally:
            self.job = None

    def wrap(self, name: str, fn):
        hook = self._hooks.get(name)
        sig = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent, nested = self._open(name)
            t0 = perf_counter()
            error = True
            try:
                out = fn(*args, **kwargs)
                error = False
            finally:
                self._close(sid, parent, name, nested, t0, error)
            if hook is not None:
                with self.span("bench.counters"):
                    hook(self, sig.bind(*args, **kwargs).arguments, out)
            return out

        return traced

    def write(self, path: Path) -> None:
        """Tab-separated spans, one per line, after a header line."""
        with path.open("w") as fh:
            fh.write("id\tparent\tname\tjob\tstart\tend\terror\tnested\n")
            for sid, parent, name, job, t0, t1, error, nested in self.spans:
                fh.write(f"{sid}\t{'' if parent is None else parent}\t{name}\t{job or ''}"
                         f"\t{t0!r}\t{t1!r}\t{int(error)}\t{int(nested)}\n")


def _restrictlab_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "restrictlab" or n.startswith("restrictlab."))]


def wrapped_targets() -> dict:
    """{span name: original function} for every public function of each layer,
    plus the BumpPair constructor."""
    targets = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"restrictlab.{layer}")
        for attr, obj in vars(mod).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                targets[f"{layer}.{obj.__name__}"] = obj
    freq = importlib.import_module("restrictlab.frequency")
    targets["frequency.BumpPair"] = freq.BumpPair.__init__
    return targets


@contextmanager
def installed(tracer: Tracer):
    """Patch every binding of every wrapped function; restore on exit."""
    targets = wrapped_targets()
    tracer.originals = targets
    by_id = {id(fn): (fn, tracer.wrap(name, fn)) for name, fn in targets.items()}
    undo = []

    def patch(owner, attr, new):
        undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    freq = importlib.import_module("restrictlab.frequency")
    patch(freq.BumpPair, "__init__", by_id[id(freq.BumpPair.__init__)][1])
    for mod in _restrictlab_modules():
        for attr, obj in list(vars(mod).items()):
            hit = by_id.get(id(obj))
            if hit is not None and hit[0] is obj:
                patch(mod, attr, hit[1])
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for cattr, cobj in list(vars(obj).items()):
                    if isinstance(cobj, staticmethod):
                        hit = by_id.get(id(cobj.__func__))
                        if hit is not None and hit[0] is cobj.__func__:
                            patch(obj, cattr, staticmethod(hit[1]))
    try:
        yield targets
    finally:
        for owner, attr, old in reversed(undo):
            setattr(owner, attr, old)


def stale_bindings(targets: dict) -> list[str]:
    """Module attributes still bound to an unwrapped original (should be none
    while the tracer is installed)."""
    originals = {id(fn) for fn in targets.values()}
    return [f"{mod.__name__}.{attr}" for mod in _restrictlab_modules()
            for attr, obj in vars(mod).items() if id(obj) in originals]


# ---------------------------------------------------------------------------
# counters recorded at layer boundaries


def _count_eval_pair(tr: Tracer, a: dict, rep) -> None:
    f1, g, kernel = a["f1"], a["g"], a["kernel"]
    n = f1.values.size
    n_half = (n + 1) // 2
    # the pairs a dense sum at full and half resolution visits, computed from
    # the grid size rather than counted inside the sum
    tr.counts["integrals.pairs_dense_computed"] += n * n + n_half * n_half
    tr.counts["integrals.unconverged"] += int(not rep.converged)
    # share of grid pairs (x1, x2) with d(a(x1) i, g a(x2) i) inside the
    # kernel support, using the program's own (unwrapped) geometry
    act, dist_hyp = tr.originals["geometry.act"], tr.originals["geometry.dist_hyp"]
    x = f1.grid()[np.unique(np.linspace(0, n - 1, SUPPORT_SAMPLE).round().astype(int))]
    z1 = [1j * np.exp(v) for v in x]
    z2 = [act(g, 1j * np.exp(v)) for v in x]
    tr.counts["integrals.support_pairs_sampled"] += sum(
        bool(dist_hyp(u, v) <= kernel.support_radius) for u in z1 for v in z2)
    tr.counts["integrals.pairs_sampled"] += len(z1) * len(z2)


def _count_kernel(tr: Tracer, a: dict, k) -> None:
    tr.counts["spherical.kernel_nodes"] += k.values.size
    tr.counts["spherical.support_nodes"] += int(np.count_nonzero(k.x_grid() <= k.support_radius))


def _count_weight(tr: Tracer, a: dict, w) -> None:
    tr.counts["measures.weight_work"] += a["nu"].atoms.size * w.values.size


def box_points(alg, n: int, g0, radius: float = 1.0) -> int:
    """Points of the coefficient box enumerate_norm_n sweeps, from the
    program's own bound helpers."""
    bounds = hecke._order_box(alg, hecke._entry_bound(n, g0, radius))
    return int(np.prod(2 * bounds.astype(object) + 1))


def _count_enumeration(tr: Tracer, a: dict, elems) -> None:
    alg, n = a["alg"], a["n"]
    g0 = a.get("g0")
    if g0 is None:
        g0 = geometry.GroupElement.identity()
    radius = a.get("radius", 1.0)
    tr.counts["hecke.box_points"] += box_points(alg, n, g0, radius)
    tr.counts["hecke.hits"] += len(elems)
    tr.counts["hecke.enumerations"] += 1
    key = (alg.a, alg.b, str(alg.basis), n, g0.m.tobytes(), radius)
    tr.counts["hecke.enum_repeats"] += int(key in tr._seen_enumerations)
    tr._seen_enumerations.add(key)


def _count_csv(tr: Tracer, a: dict, result) -> None:
    out = Path(a["cfg"].out)
    tr.counts["cli.csv_bytes"] += sum(p.stat().st_size for p in out.glob("*.csv"))


# ---------------------------------------------------------------------------
# derived tables


def self_times(spans) -> dict:
    """{span id: duration minus the durations of its direct children}."""
    child = defaultdict(float)
    for s in spans:
        if s[PARENT] is not None:
            child[s[PARENT]] += s[END] - s[START]
    return {s[SID]: (s[END] - s[START]) - child[s[SID]] for s in spans}


def span_table(spans) -> dict:
    """{name: {calls, s, self_s, errors}}; `s` counts only the outermost
    span of a name so recursion is not double counted."""
    selfs = self_times(spans)
    table = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "errors": 0})
    for s in spans:
        row = table[s[NAME]]
        row["calls"] += 1
        row["self_s"] += selfs[s[SID]]
        row["errors"] += int(s[ERROR])
        if not s[NESTED]:
            row["s"] += s[END] - s[START]
    return dict(table)


def layer_metrics(tracer: Tracer) -> dict:
    """Flat per-layer metrics: every span's calls/s/self_s/errors, the
    counters and their ratios, and each layer's share of traced self time."""
    table = span_table(tracer.spans)
    out = {}
    for name, row in table.items():
        for k, v in row.items():
            out[f"{name}.{k}"] = v
    c = tracer.counts
    out.update(c)
    out["integrals.support_frac"] = c["integrals.support_pairs_sampled"] / max(c["integrals.pairs_sampled"], 1)
    out["spherical.support_node_frac"] = c["spherical.support_nodes"] / max(c["spherical.kernel_nodes"], 1)
    out["hecke.hit_frac"] = c["hecke.hits"] / max(c["hecke.box_points"], 1)
    out["hecke.enum_repeat_frac"] = c["hecke.enum_repeats"] / max(c["hecke.enumerations"], 1)
    total = table["bench.job"]["s"] if "bench.job" in table else 0.0
    for layer in LAYERS + ("bench",):
        own = sum(r["self_s"] for n, r in table.items() if n.split(".")[0] == layer)
        out[f"layer.{layer}.self_frac"] = own / total if total > 0 else 0.0
    out["trace.spans"] = len(tracer.spans)
    out["trace.errors"] = sum(r["errors"] for r in table.values())
    return out
