"""Outside-in span tracing for the fkpf benchmark.

The program has no telemetry of its own, so the benchmark times each layer
from outside: it replaces the public functions a layer exposes, by module
attribute, with wrappers that record a span per call.  A span is (name,
start, end, parent span, run id); spans are kept in memory in flat arrays and
written out when the run ends.  A layer's self time is its span time minus
the time its child spans cover.

``LAYER_FUNCTIONS`` lists what is wrapped.  Every binding of the same
function object in a loaded ``fkpf`` module is replaced, so calls made
through ``from .paths import sample_bridge_block`` are seen as well.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from array import array
from contextlib import contextmanager, nullcontext
from time import perf_counter

import numpy as np


def _observe_gate(tracer, weights):
    """Counts read from the survival weights ``exit_weights_block`` returns."""
    w = np.asarray(weights, dtype=float)
    live = w > 0.0
    tracer.count("paths.gated", w.size)
    tracer.count("paths.live", int(live.sum()))
    tracer.count("paths.weight_sum", float(w[live].sum()))


# (qualified function, span name, observer of the return value or None)
LAYER_FUNCTIONS = (
    ("fkpf.semigroup.estimate_Tt_element", "semigroup.estimate", None),
    ("fkpf.semigroup.estimate_kernel_element", "semigroup.estimate", None),
    ("fkpf.semigroup.estimate_penalized_element", "semigroup.estimate", None),
    ("fkpf.paths.sample_bm_block", "paths.sample", None),
    ("fkpf.paths.sample_bridge_block", "paths.sample", None),
    ("fkpf.paths.stream_generator", "paths.streams", None),
    ("fkpf.paths.exit_weights_block", "paths.gate", _observe_gate),
    ("fkpf.paths.penalty_integral_block", "paths.gate", None),
    ("fkpf.oracle.build_pauli_fierz", "oracle.assemble", None),
    ("fkpf.oracle.build_schrodinger", "oracle.assemble", None),
    ("fkpf.oracle.build_magnetic", "oracle.assemble", None),
    ("fkpf.oracle.build_field", "oracle.build_field", None),
    ("fkpf.oracle.DiscreteOperator.eigensystem", "oracle.eigh", None),
    ("fkpf.oracle.semigroup_apply", "oracle.apply", None),
    ("fkpf.oracle.resolvent_apply", "oracle.apply", None),
    ("fkpf.action.compute_S", "action", None),
    ("fkpf.action.compute_K", "action", None),
    ("fkpf.action.compute_S_div", "action", None),
    ("fkpf.action.compute_K_div", "action", None),
    ("fkpf.action.evaluate_action", "action", None),
    ("fkpf.integrand.w_kernel_matrix_element", "integrand", None),
    ("fkpf.integrand.w_star_matrix_element", "integrand", None),
    ("fkpf.integrand.gmm_operator", "integrand", None),
    ("fkpf.integrand.gmm_matrix_element", "integrand", None),
    ("fkpf.integrand.contraction_check", "integrand", None),
    ("fkpf.oneboson.pullback", "oneboson", None),
    ("fkpf.oneboson.nelson_inner", "oneboson", None),
    ("fkpf.oneboson.nelson_norm_sq", "oneboson", None),
    ("fkpf.fock.embed_expvec", "fock.embed", None),
)


def _span_total(stat):
    return lambda t: t["incl"].get(stat, 0.0)


def _span_calls(stat):
    return lambda t: float(t["calls"].get(stat, 0))


def _span_self(stat):
    return lambda t: t["self"].get(stat, 0.0)


def _ratio(num, den):
    return lambda t: t["counts"].get(num, 0.0) / max(t["counts"].get(den, 0.0), 1.0)


# per-layer metric -> (unit, value from one run's totals).  A ``_s`` metric
# is the time callers spent inside the layer (outermost spans, children
# included) and ``_calls`` counts those entries, except where a comment says
# the metric is a self time.
PER_LAYER = {
    "paths.sample_s": ("s", _span_total("paths.sample")),
    "paths.streams_s": ("s", _span_total("paths.streams")),
    "paths.streams_calls": ("count", _span_calls("paths.streams")),
    "paths.gate_s": ("s", _span_total("paths.gate")),
    "paths.gated": ("count", lambda t: t["counts"].get("paths.gated", 0.0)),
    "paths.survival_frac": ("ratio", _ratio("paths.live", "paths.gated")),
    "paths.mean_crossing_weight": ("ratio", _ratio("paths.weight_sum", "paths.live")),
    "semigroup.estimate_s": ("s", _span_total("semigroup.estimate")),
    # estimator self time: the span minus its sample and gate children
    "semigroup.integrand_s": ("s", _span_self("semigroup.estimate")),
    # run() minus the estimator and oracle spans under it
    "harness.self_s": ("s", _span_self("harness")),
    "oracle.assemble_s": ("s", _span_total("oracle.assemble")),
    "oracle.build_field_calls": ("count", _span_calls("oracle.build_field")),
    "oracle.eigh_s": ("s", _span_total("oracle.eigh")),
    "oracle.apply_s": ("s", _span_total("oracle.apply")),
    "oracle.apply_calls": ("count", _span_calls("oracle.apply")),
    "action.s": ("s", _span_total("action")),
    "action.calls": ("count", _span_calls("action")),
    "integrand.s": ("s", _span_total("integrand")),
    "integrand.calls": ("count", _span_calls("integrand")),
    "oneboson.s": ("s", _span_total("oneboson")),
    "oneboson.calls": ("count", _span_calls("oneboson")),
    "fock.embed_s": ("s", _span_total("fock.embed")),
    "acceptance.c07_s": ("s", _span_total("acceptance.c07")),
    "acceptance.c10_s": ("s", _span_total("acceptance.c10")),
    "acceptance.c11_s": ("s", _span_total("acceptance.c11")),
}


def _resolve(qualname):
    """(owner, object) for 'fkpf.module[.Class].attr'."""
    parts = qualname.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for part in parts[cut:-1]:
            owner = getattr(owner, part)
        return owner, getattr(owner, parts[-1])
    raise ImportError(f"cannot resolve {qualname}")


class NoTracer:
    """Stand-in for untraced repetitions: the benchmark's own spans are no-ops."""

    def span(self, name):
        return nullcontext()


class Tracer:
    """Span recorder.  ``install`` wraps the layer functions; ``remove``
    restores them.  Spans made while installed carry the current run id."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self._name = array("i")
        self._parent = array("q")
        self._run = array("i")
        self._outer = array("b")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self._depth = []
        self._patched = []
        self.counts = {}
        self.run_id = 0

    # -- recording ----------------------------------------------------------

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return self._name_ids[name]

    def _open(self, nid):
        idx = len(self._start)
        self._name.append(nid)
        self._parent.append(self._stack[-1])
        self._run.append(self.run_id)
        self._outer.append(self._depth[nid] == 0)
        self._end.append(0.0)
        self._stack.append(idx)
        self._depth[nid] += 1
        self._start.append(perf_counter())
        return idx

    def _close(self, idx, nid):
        self._end[idx] = perf_counter()
        self._stack.pop()
        self._depth[nid] -= 1

    @contextmanager
    def span(self, name):
        """Span opened by the benchmark itself around a call into a layer."""
        nid = self._name_id(name)
        idx = self._open(nid)
        try:
            yield
        finally:
            self._close(idx, nid)

    def count(self, name, value):
        key = (self.run_id, name)
        self.counts[key] = self.counts.get(key, 0.0) + value

    def _wrap(self, fn, name, observe):
        nid = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx, nid)
            if observe is not None:
                observe(self, out)
            return out

        return traced

    # -- patching -------------------------------------------------------------

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        for qualname, name, observe in LAYER_FUNCTIONS:
            owner, fn = _resolve(qualname)
            wrapped = self._wrap(fn, name, observe)
            if isinstance(owner, type):
                owners = [owner]
            else:
                owners = [m for key, m in list(sys.modules.items())
                          if key == "fkpf" or key.startswith("fkpf.")]
            for mod in owners:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patched.append((mod, key, fn))
                        setattr(mod, key, wrapped)

    def remove(self):
        for owner, key, fn in reversed(self._patched):
            setattr(owner, key, fn)
        self._patched = []

    # -- analysis -------------------------------------------------------------

    def columns(self):
        return {
            "name": np.array(self._name, dtype=np.int32),
            "parent": np.array(self._parent, dtype=np.int64),
            "run": np.array(self._run, dtype=np.int32),
            "outer": np.array(self._outer, dtype=bool),
            "start": np.array(self._start, dtype=np.float64),
            "end": np.array(self._end, dtype=np.float64),
        }

    def run_totals(self):
        """Per run id: inclusive time and call count of the outermost spans,
        self time of all spans, per span name; plus the counters."""
        cols = self.columns()
        dur = cols["end"] - cols["start"]
        parent = cols["parent"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        self_t = dur - child
        width = max(len(self.names), 1)
        key = cols["run"].astype(np.int64) * width + cols["name"]
        size = (int(cols["run"].max()) + 1) * width if dur.size else 0
        outer = cols["outer"]
        incl = np.bincount(key[outer], weights=dur[outer], minlength=size)
        calls = np.bincount(key[outer], minlength=size)
        selfs = np.bincount(key, weights=self_t, minlength=size)
        totals = {}
        for run_id in np.unique(cols["run"]):
            base = int(run_id) * width
            totals[int(run_id)] = {
                "incl": {n: float(incl[base + i]) for i, n in enumerate(self.names)},
                "calls": {n: int(calls[base + i]) for i, n in enumerate(self.names)},
                "self": {n: float(selfs[base + i]) for i, n in enumerate(self.names)},
                "counts": {},
            }
        for (run_id, name), value in self.counts.items():
            totals.setdefault(run_id, {"incl": {}, "calls": {}, "self": {},
                                       "counts": {}})["counts"][name] = value
        return totals

    def layer_metrics(self):
        """Per run id, every PER_LAYER metric."""
        empty = {"incl": {}, "calls": {}, "self": {}, "counts": {}}
        totals = self.run_totals()
        return {run_id: {name: fn(totals.get(run_id, empty))
                         for name, (_, fn) in PER_LAYER.items()}
                for run_id in totals}

    def write(self, path, env):
        """Write every span and the run environment to one .npz file."""
        cols = self.columns()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            env=np.array(json.dumps(env, sort_keys=True)),
            **cols,
        )
