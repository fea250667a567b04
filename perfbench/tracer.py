"""Span tracing by rebinding the public functions of the ietflow modules.

``Tracer.install`` replaces every traced function or method with a wrapper
that records one span (id, parent id, root id, name, start, end) per call.
A function imported by name into another module is rebound there as well,
so ``ietflow.edges.induce`` is traced exactly like
``ietflow.induction.induce``.  ``uninstall`` puts the originals back.  The
program itself is never edited; untraced benchmark runs never install the
wrappers.

Only calls made inside a ``request`` span, one benchmark operation, are
recorded.  Spans are kept in flat arrays and summarized at the end: a
span's self time is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager

# Public functions and methods traced per module ("Class.method" for methods).
TRACED = {
    "iet": (
        "Iet.__init__",
        "Iet.piece_index",
        "Iet.evaluate",
        "Iet.invert",
        "Iet.iterate",
        "Iet.continuity_intervals",
        "make_iet",
        "identity_iet",
        "parse_rational",
    ),
    "induction": (
        "induce",
        "rauzy_step",
        "rauzy_orbit",
        "rescale",
        "check_induction_consistency",
    ),
    "edges": (
        "find_virtual_edges",
        "max_disjoint_edges",
        "in_rotation_band",
        "default_probe_scales",
        "probe_edge_criterion",
        "sample_iet",
        "estimate_full_measure",
    ),
    "closing": (
        "SuspensionFlow.roof_at",
        "build_flow_box",
        "twisted_return",
        "continuation_curve",
        "find_closing_parameter",
        "induced_suspension",
        "close_at_point",
    ),
    "serialize": (
        "iet_from_dict",
        "iet_to_dict",
        "flow_from_dict",
        "load_iet",
        "load_flow",
    ),
    "cli": ("run",),
}

ROOT_MODULE = "bench"


class Tracer:
    """Records spans for calls into the traced ietflow functions."""

    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self._sid = array("q")
        self._parent = array("q")
        self._root = array("q")
        self._name = array("l")
        self._start = array("d")
        self._end = array("d")
        self._next_id = 1
        self._stack = [0]
        self._root_id = 0
        self.errors: Counter = Counter()
        self.observed: defaultdict = defaultdict(list)
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _name_index(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def _record(self, sid, parent, name_idx, start, end):
        self._sid.append(sid)
        self._parent.append(parent)
        self._root.append(self._root_id)
        self._name.append(name_idx)
        self._start.append(start)
        self._end.append(end)

    def _wrap(self, name: str, fn):
        name_idx = self._name_index(name)
        stack = self._stack
        observe = OBSERVERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._root_id:
                # not caused by a benchmark operation (a gate, say)
                return fn(*args, **kwargs)
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.errors[(name, type(exc).__name__)] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                self._record(sid, parent, name_idx, start, end)
            if observe is not None:
                observe(self.observed[name], result)
            return result

        return wrapper

    @contextmanager
    def request(self, name: str):
        """Root span around one benchmark operation; the spans it causes
        carry its id as their root id."""
        sid = self._next_id
        self._next_id = sid + 1
        name_idx = self._name_index(f"{ROOT_MODULE}.{name}")
        self._root_id = sid
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._record(sid, 0, name_idx, start, end)
            self._root_id = 0

    # -- rebinding ----------------------------------------------------------

    def install(self) -> None:
        """Rebind every traced function wherever an ietflow module holds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module_name in TRACED:
            importlib.import_module(f"ietflow.{module_name}")
        modules = [
            mod
            for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == "ietflow" or key.startswith("ietflow."))
        ]
        for module_name, targets in TRACED.items():
            home = sys.modules[f"ietflow.{module_name}"]
            for target in targets:
                name = f"{module_name}.{target}"
                if "." in target:
                    cls_name, attr = target.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[attr]
                    wrapper = self._wrap(name, original)
                    # aliases such as Iet.__call__ = evaluate share the function
                    for alias, value in list(cls.__dict__.items()):
                        if value is original:
                            self._patch(cls, alias, wrapper)
                    continue
                original = getattr(home, target)
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for alias, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, alias, wrapper)

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- summary ------------------------------------------------------------

    @property
    def span_count(self) -> int:
        return len(self._sid)

    def summary(self) -> dict:
        """Per traced name: calls, total seconds and self seconds."""
        duration = {}
        child_time: defaultdict = defaultdict(float)
        for sid, parent, start, end in zip(self._sid, self._parent, self._start, self._end):
            d = end - start
            duration[sid] = d
            if parent:
                child_time[parent] += d
        stats: dict = {}
        for sid, name_idx in zip(self._sid, self._name):
            entry = stats.setdefault(self.names[name_idx], [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += duration[sid]
            entry[2] += duration[sid] - child_time[sid]
        return {
            name: {"calls": calls, "total_s": total, "self_s": self_s}
            for name, (calls, total, self_s) in stats.items()
        }

    def module_self_seconds(self) -> dict:
        """Self time summed per module, keyed by module name."""
        totals: defaultdict = defaultdict(float)
        for name, entry in self.summary().items():
            totals[name.split(".", 1)[0]] += entry["self_s"]
        return dict(totals)


def _observe_induce(values, result):
    values.append(max(result.return_times))


def _observe_measure(values, report):
    values.extend(report.per_sample)


def _observe_closing(values, result):
    values.append((result.iterations, result.residual))


# Result observers: counts taken at the boundary where the work happens.
OBSERVERS = {
    "induction.induce": _observe_induce,
    "edges.estimate_full_measure": _observe_measure,
    "closing.find_closing_parameter": _observe_closing,
}
