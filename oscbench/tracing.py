"""Spans and counts recorded from outside the oscillab package.

``install(tracer)`` wraps public functions of every oscillab module (and a
few methods, patched on their class) so that each call records a span: its
name, start, end, the index of the enclosing span and the run id. Spans are
kept in memory and written once, when the run ends.

The package binds names with ``from .x import y``, so a wrapper is rebound
in every loaded oscillab module that holds the same function object;
otherwise a call made through another module's name would go unrecorded.

Counts are recorded at the same boundaries. Work done to compute a count
(hashing inputs to tell distinct ones apart) runs inside a ``bench.count``
span, so it is charged to no layer.

This module imports nothing from numpy or oscillab at import time; the
child process calls ``install`` after its set-up has been timed.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import sys
import time
from collections import Counter, defaultdict

COUNT_SPAN = "bench.count"
GLUE_SPANS = ("experiments.run", "experiments.scenario")

# Per-layer metrics: name -> unit. Times are self times summed over the run.
LAYER_METRICS = {
    "potential.rho_solve_s": "s",
    "potential.rho_points": "count",
    "potential.rho_unique_ratio": "ratio",
    "potential.mass_evals": "count",
    "oscillation.family_stats_s": "s",
    "oscillation.family_stats_calls": "count",
    "oscillation.family_stats_unique_ratio": "ratio",
    "oscillation.norms_s": "s",
    "oscillation.curves_s": "s",
    "grid.table_builds": "count",
    "grid.table_build_s": "s",
    "grid.table_bytes_computed": "bytes",
    "grid.ball_sum_calls": "count",
    "grid.ball_sum_s": "s",
    "family.build_s": "s",
    "family.balls": "count",
    "family.distinct_centers": "count",
    "family.bucketed_sup_s": "s",
    "semigroup.discretize_s": "s",
    "semigroup.discretize_calls": "count",
    "semigroup.operator_unique_ratio": "ratio",
    "semigroup.operator_dim": "count",
    "semigroup.field_s": "s",
    "semigroup.apply_s": "s",
    "semigroup.apply_calls": "count",
    "semigroup.apply_flops_computed": "flop",
    "tent.box_scan_s": "s",
    "tent.box_calls": "count",
    "tent.norms_s": "s",
    "tent.curves_s": "s",
    "tent.pairing_s": "s",
    "approx.threshold_scan_s": "s",
    "approx.assign_s": "s",
    "approx.assigned_samples": "count",
    "approx.n_cubes": "count",
    "approx.average_s": "s",
    "approx.gates_s": "s",
    "approx.adjacent_pairs": "count",
    "approx.mollify_s": "s",
    "corpus.build_s": "s",
    "serialize.write_s": "s",
    "serialize.bundle_bytes": "bytes",
    "experiments.glue_s": "s",
}

LAYERS = ("potential", "oscillation", "grid", "family", "semigroup", "tent", "approx",
          "corpus", "serialize", "experiments")


class Tracer:
    """In-memory span and count store for one run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.distinct: defaultdict = defaultdict(set)
        self.maxima: dict = {}

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def record_max(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima.get(key, value), value)

    def dump(self) -> dict:
        return {
            "run_id": self.run_id,
            "spans": self.spans,
            "counts": dict(self.counts),
            "distinct": {k: len(v) for k, v in self.distinct.items()},
            "maxima": self.maxima,
        }


def _digest(*arrays) -> bytes:
    import numpy as np

    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str((a.dtype.str, a.shape)).encode())
        h.update(a.view(np.uint8).reshape(-1))
    return h.digest()


def _distinct_rows(points) -> int:
    import numpy as np

    pts = np.asarray(points)
    if pts.ndim == 2 and pts.shape[1] == 1:
        pts = pts[:, 0]
    if pts.ndim == 1:
        return int(np.unique(pts).size)
    return int(np.unique(pts, axis=0).shape[0])


# -- counters: (tracer, bound arguments, result) -> None --------------------


def _count_rho(t, a, out):
    pts = out.points
    t.counts["potential.rho_points"] += pts.shape[0]
    t.counts["potential.rho_distinct"] += _distinct_rows(pts)


def _count_mass(t, a, out):
    t.counts["potential.mass_evals"] += out.shape[0]


def _count_family_stats(t, a, out):
    f, fam = a["f"], a["family"]
    t.counts["oscillation.family_stats_calls"] += 1
    t.distinct["oscillation.family_stats"].add(_digest(f.values) + _digest(fam.centers, fam.radii))


def _count_table(t, a, out):
    t.counts["grid.table_builds"] += 1
    t.counts["grid.table_bytes_computed"] += a["self"]._p.nbytes


def _count_ball_sum(t, a, out):
    t.counts["grid.ball_sum_calls"] += 1


def _count_family(t, a, out):
    t.counts["family.balls"] += len(out)
    t.counts["family.distinct_centers"] += _distinct_rows(out.centers)


def _count_discretize(t, a, out):
    V, grid = a["V"], a["grid"]
    samples = _digest(V.samples.values) if V.samples is not None else b""
    key = (V.kind, V.n, V.constant, V.eps, V.amplitude, samples, grid.n, grid.halfwidth, grid.spacing)
    t.counts["semigroup.discretize_calls"] += 1
    t.distinct["semigroup.operator"].add(key)
    t.record_max("semigroup.operator_dim", out.interior_count)


def _dense_applies(t, m: int, applies: int) -> None:
    t.counts["semigroup.apply_calls"] += applies
    t.counts["semigroup.apply_flops_computed"] += applies * 2 * m * m


def _count_operator_apply(t, a, out):
    _dense_applies(t, a["self"].interior_count, 1)


def _fields_counter(n_fields: int):
    # one dense synthesis per ladder slice and field; the coefficient
    # transform is counted by the SpectralOperator.coefficients wrapper
    def count(t, a, out):
        _dense_applies(t, a["op"].interior_count, n_fields * len(a["ladder"]))

    return count


def _count_box_values(t, a, out):
    t.counts["tent.box_calls"] += 1


def _count_assign(t, a, out):
    t.counts["approx.assigned_samples"] += a["grid"].size
    t.counts["approx.n_cubes"] += out.n_cubes


def _count_gates(t, a, out):
    t.counts["approx.adjacent_pairs"] += out.n_adjacent_pairs


# (module, attribute, span name or None for count-only, counter)
_FUNCTIONS = [
    ("potential", "solve_critical_radius", "potential.rho_solve", _count_rho),
    ("potential", "normalized_mass", None, _count_mass),
    ("oscillation", "family_stats", "oscillation.family_stats", _count_family_stats),
    ("oscillation", "bmo_norm", "oscillation.norms", None),
    ("oscillation", "bmo_l_norm", "oscillation.norms", None),
    ("oscillation", "tilde_bmo_l_norm", "oscillation.norms", None),
    ("oscillation", "oscillation_curves", "oscillation.curves", None),
    ("oscillation", "semigroup_oscillation_curves", "oscillation.curves", None),
    ("family", "make_ball_family", "family.build", _count_family),
    ("family", "bucketed_sup", "family.bucketed_sup", None),
    ("semigroup", "discretize", "semigroup.discretize", _count_discretize),
    ("semigroup", "apply_spectral", "semigroup.apply", None),
    ("semigroup", "square_function_field", "semigroup.field", _fields_counter(1)),
    ("semigroup", "poisson_extension", "semigroup.field", _fields_counter(2)),
    ("tent", "family_box_values", "tent.box_scan", None),
    ("tent", "t2p_norm", "tent.norms", None),
    ("tent", "hmo_norm", "tent.norms", None),
    ("tent", "tent_curves", "tent.curves", None),
    ("tent", "gradient_carleson_curves", "tent.curves", None),
    ("tent", "reproducing_pairing_check", "tent.pairing", None),
    ("approx", "choose_thresholds", "approx.threshold_scan", None),
    ("approx", "assign_cubes", "approx.assign", _count_assign),
    ("approx", "dyadic_average", "approx.average", None),
    ("approx", "p1_p2_check", "approx.gates", _count_gates),
    ("approx", "mollify", "approx.mollify", None),
    ("serialize", "save_json", "serialize.write", None),
    ("serialize", "save_curves_csv", "serialize.write", None),
    ("serialize", "save_grid_function", "serialize.write", None),
    ("experiments", "run", "experiments.run", None),
]

# (module, class, method, span name or None, counter)
_METHODS = [
    ("grid", "SummedTable", "__init__", "grid.table_build", _count_table),
    ("grid", "SummedTable", "ball_sum", "grid.ball_sum", _count_ball_sum),
    ("semigroup", "SpectralOperator", "coefficients", None, _count_operator_apply),
    ("semigroup", "SpectralOperator", "synthesize", None, _count_operator_apply),
    ("tent", "BoxScanner", "box_values", None, _count_box_values),
    ("corpus", "CorpusMember", "build", "corpus.build", None),
]


def _wrap(tracer: Tracer, fn, span: str | None, counter):
    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.begin(span) if span is not None else None
        try:
            out = fn(*args, **kwargs)
        finally:
            if idx is not None:
                tracer.end(idx)
        if counter is not None:
            c = tracer.begin(COUNT_SPAN)
            try:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(tracer, bound.arguments, out)
            finally:
                tracer.end(c)
        return out

    return wrapper


def install(tracer: Tracer) -> int:
    """Wrap every listed function and method; return the number of
    rebinding sites. Needs ``oscillab.experiments`` (which imports every
    layer module) to be imported already."""
    mods = {name[len("oscillab."):]: m for name, m in sys.modules.items()
            if name.startswith("oscillab.") and m is not None}
    sites = 0
    for mod, attr, span, counter in _FUNCTIONS:
        original = getattr(mods[mod], attr)
        wrapped = _wrap(tracer, original, span, counter)
        for m in mods.values():
            for k, v in list(vars(m).items()):
                if v is original:
                    setattr(m, k, wrapped)
                    sites += 1
    for mod, cls_name, meth, span, counter in _METHODS:
        cls = getattr(mods[mod], cls_name)
        setattr(cls, meth, _wrap(tracer, getattr(cls, meth), span, counter))
        sites += 1
    # run() looks scenario handlers up in this table at call time
    table = mods["experiments"]._SCENARIOS
    for sid, handler in list(table.items()):
        table[sid] = _wrap(tracer, handler, "experiments.scenario", None)
        sites += 1
    return sites


# -- reduction -----------------------------------------------------------------


def self_times(spans: list) -> dict:
    """Sum of self time per span name: duration minus the time covered by
    direct children (children never overlap: one thread, strict nesting)."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict = defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        out[name] += (end - start) - child[i]
    return dict(out)


def layer_metrics(trace: dict, bundle_bytes: int) -> dict:
    """Every per-layer metric from one traced run. A ratio whose base is 0
    (the layer did no work) reads 0."""
    st = self_times(trace["spans"])
    counts = Counter(trace["counts"])
    distinct = trace["distinct"]

    def ratio(num, den):
        return num / den if den else 0.0

    m = {name: st.get(name[:-2], 0.0) if unit == "s" else counts[name]
         for name, unit in LAYER_METRICS.items()}
    m.update({
        "potential.rho_unique_ratio": ratio(counts["potential.rho_distinct"], counts["potential.rho_points"]),
        "oscillation.family_stats_unique_ratio": ratio(
            distinct.get("oscillation.family_stats", 0), counts["oscillation.family_stats_calls"]),
        "semigroup.operator_unique_ratio": ratio(
            distinct.get("semigroup.operator", 0), counts["semigroup.discretize_calls"]),
        "semigroup.operator_dim": trace["maxima"].get("semigroup.operator_dim", 0),
        "serialize.bundle_bytes": bundle_bytes,
        "experiments.glue_s": sum(st.get(s, 0.0) for s in GLUE_SPANS),
    })
    return m


def layer_shares(trace: dict, wall_s: float) -> dict:
    """Self time of each layer as a share of the traced run's wall time."""
    st = self_times(trace["spans"])
    shares = {}
    for layer in LAYERS:
        names = GLUE_SPANS if layer == "experiments" else [n for n in st if n.split(".")[0] == layer]
        shares[layer] = sum(st.get(n, 0.0) for n in names) / wall_s
    return shares
