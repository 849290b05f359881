"""Span tracing of xhbac's layers, installed from outside the package.

`install()` wraps each public function in TARGETS.  The wrapper replaces the
function under every name that holds it in any loaded `xhbac` module, because
`figures`, `acceptance` and `cli` import what they use by name and a patch of
the defining module alone would miss their calls.  Calls inside the defining
module go through its globals and are caught too.  A target that no longer
exists is listed as absent instead of failing the pass.

Spans stay in memory as (name, parent id, start, end, counts) and are reduced
to per-name totals once the pass is over.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

import numpy as np


def _fig_name(args, kwargs, result):
    return f"figures.{kwargs.get('fig_id', args[0] if args else '?')}"


def _criterion_name(ident):
    def name(args, kwargs, result):
        return f"acceptance.{getattr(result, 'key', f'criterion{ident}')}"
    return name


def _extremal_counts(args, kwargs, result):
    return {"n_orders": getattr(result, "n_orders", 0),
            "n_distinct": getattr(result, "n_distinct", 0)}


def _angle_count(args, kwargs, result):
    return {"angles": int(np.size(kwargs.get("s", args[0] if args else 0)))}


def _csv_bytes(args, kwargs, result):
    return {"bytes": len(result.encode()) if isinstance(result, str) else 0}


# (module, attribute or Class.method, span name, counter)
TARGETS = [
    ("xhbac.thermal_core", "extremal_points", "thermal_core.extremal_points", _extremal_counts),
    ("xhbac.thermal_core", "beta_permutation", "thermal_core.beta_permutation", None),
    ("xhbac.thermal_core", "thermo_majorizes", "thermal_core.thermo_majorizes", None),
    ("xhbac.thermal_core", "beta_order", "thermal_core.beta_order", None),
    ("xhbac.thermal_core", "thermo_curve", "thermal_core.thermo_curve", None),
    ("xhbac.protocols", "oracle_optimal_round", "protocols.oracle_optimal_round", None),
    ("xhbac.protocols", "optimal_round", "protocols.optimal_round", None),
    ("xhbac.protocols", "run_optimal_protocol", "protocols.run_optimal_protocol", None),
    ("xhbac.protocols", "ppa_trace", "protocols.ppa_trace", None),
    ("xhbac.bosonic_sim", "optimize_interaction_time", "bosonic_sim.optimize_interaction_time", None),
    ("xhbac.bosonic_sim", "jc_deexcitation", "bosonic_sim.jc_deexcitation", _angle_count),
    ("xhbac.bosonic_sim", "atom_stream_sim", "bosonic_sim.atom_stream_sim", None),
    ("xhbac.bosonic_sim", "jc_reuse_trace", "bosonic_sim.jc_reuse_trace", None),
    ("xhbac.bosonic_sim", "rethermalize_mode", "bosonic_sim.rethermalize_mode", None),
    ("xhbac.bosonic_sim", "jc_round", "bosonic_sim.jc_round", None),
    ("xhbac.figures", "run_figure", _fig_name, None),
    ("xhbac.results", "ResultTable.to_csv", "results.to_csv", _csv_bytes),
    ("xhbac.cli", "main", "cli", None),
]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, parent id, start, end, counts]
        self._stack: list[int] = []
        self.absent: list[str] = []

    def wrap(self, fn, name, counter=None):
        """Return fn wrapped in a span; `name` is a string or (args, kwargs, result) -> str."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, self._stack[-1] if self._stack else None, time.perf_counter(), None, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
                if callable(name):
                    span[0] = name(args, kwargs, result)
                if counter is not None and result is not None:
                    span[4] = counter(args, kwargs, result)
        return traced

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, busy time `s`, self time `self_s` and summed counts.

        Busy time counts a span only when no ancestor has the same name, so
        recursion is not counted twice.  Self time subtracts direct children.
        """
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for sid, (name, parent, start, end, counts) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["self_s"] += end - start - child_time[sid]
            ancestor = parent
            while ancestor is not None and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][1]
            if ancestor is None:
                agg["s"] += end - start
            for key, value in (counts or {}).items():
                agg[key] = agg.get(key, 0) + value
        return out


def _rebind(original, wrapper) -> None:
    """Point every name bound to `original` in a loaded xhbac module at `wrapper`."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "xhbac" or mod_name.startswith("xhbac.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install() -> Tracer:
    """Wrap every target (and each acceptance criterion) in spans of a new Tracer."""
    tracer = Tracer()
    for mod_name, attr, name, counter in TARGETS:
        label = f"{mod_name}.{attr}"
        try:
            owner = importlib.import_module(mod_name)
        except ImportError:
            owner = None
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            tracer.absent.append(label)
            continue
        wrapper = tracer.wrap(original, name, counter)
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
        else:
            _rebind(original, wrapper)
    try:
        criteria = importlib.import_module("xhbac.acceptance").CRITERIA
    except (ImportError, AttributeError):
        criteria = None
    if criteria is None:
        tracer.absent.append("xhbac.acceptance.CRITERIA")
    else:
        for ident, fn in list(criteria.items()):
            wrapper = tracer.wrap(fn, _criterion_name(ident))
            criteria[ident] = wrapper
            _rebind(fn, wrapper)
    return tracer
