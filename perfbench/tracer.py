"""Spans around the calls each ``conebarriers`` module makes into the layer
below, recorded from outside the package.

The modules import names with ``from .x import y``, so wrapping
``conebarriers.linalg.svd`` would miss ``conebarriers.conjugate.svd``: each
calling module's own binding is wrapped instead, and every one is restored
when the tracer is closed.  No file under ``src/`` changes.

A span is (name, start, end, parent, info); spans live in flat arrays until
the run ends.  Self time is a span's duration minus the time its child spans
cover; the program is single-threaded, so children never overlap.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import defaultdict

from conebarriers import barriers, conjugate, experiment, newton


def _family(args, out):
    return args[0].family.value


def _newton_info(args, out):
    return (args[0].family.value, out[1].iterations, out[1].status.value)


def _root_info(args, out):
    return (out.iterations, out.converged)


def _order(args, out):
    return len(args[0])


def _result(args, out):
    return bool(out)


# (module, attribute, span name, info) -- the bindings each caller imported
TARGETS = (
    (experiment, "sample_dual_point", "experiment.sample", None),
    (experiment, "dual_in_interior", "cones.membership", _result),
    (experiment, "pack", "cones.pack", None),
    (experiment, "conjugate_gradient", "conjugate", _family),
    (experiment, "generic_conjugate_gradient", "newton", _newton_info),
    (newton, "dual_in_interior", "cones.membership", _result),
    (newton, "in_interior", "cones.membership", _result),
    (newton, "pack", "cones.pack", None),
    (newton, "unpack", "cones.unpack", None),
    (barriers, "pack", "cones.pack", None),
    (barriers, "unpack", "cones.unpack", None),
    (barriers, "cholesky_factor", "linalg.cholesky", _order),
    (barriers, "sym_eigen", "linalg.eigh", None),
    (barriers, "svd", "linalg.svd", None),
    (conjugate, "dual_in_interior", "cones.membership", _result),
    (conjugate, "pack", "cones.pack", None),
    (conjugate, "unpack", "cones.unpack", None),
    (conjugate, "sym_eigen", "linalg.eigh", None),
    (conjugate, "svd", "linalg.svd", None),
    (conjugate, "newton_raphson", "scalars.newton_raphson", _root_info),
    (conjugate, "wright_omega", "scalars.wright_omega", None),
)


class Tracer:
    """Installs the span wrappers; use as a context manager."""

    def __init__(self, bench_module):
        self.bench_module = bench_module
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.parent = array("q")
        self.name = array("H")
        self.t0 = array("d")
        self.t1 = array("d")
        # per span: info from the result, or ("raised", exception type)
        self.info: list = []
        self._stack = [-1]
        self._saved: list = []

    # ------------------------------------------------------------ wrapping
    def wrap(self, name: str, fn, info=None):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        parent, names, t0, t1, infos, stack = (
            self.parent, self.name, self.t0, self.t1, self.info, self._stack)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(infos)
            parent.append(stack[-1])
            names.append(nid)
            infos.append(None)
            t1.append(0.0)
            stack.append(idx)
            t0.append(clock())
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                infos[idx] = ("raised", type(exc).__name__)
                raise
            finally:
                t1[idx] = clock()
                stack.pop()
            if info is not None:
                infos[idx] = info(args, out)
            return out

        return traced

    def _workspace(self, cls):
        build = self.wrap("barriers.workspace", cls, _family)

        def construct(cone, point):
            ws = build(cone, point)
            ws.gradient = self.wrap("barriers.gradient", ws.gradient)
            ws.inverse_hessian_apply = self.wrap("barriers.inverse_hessian",
                                                 ws.inverse_hessian_apply)
            return ws

        return construct

    def _patch(self, module, attr, value):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def __enter__(self):
        for module, attr, name, info in TARGETS:
            self._patch(module, attr, self.wrap(name, getattr(module, attr), info))
        self._patch(newton, "BarrierWorkspace", self._workspace(newton.BarrierWorkspace))
        # the conj pass calls conjugate_gradient from the benchmark itself
        self._patch(self.bench_module, "conjugate_gradient",
                    self.wrap("conjugate", self.bench_module.conjugate_gradient, _family))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, value = self._saved.pop()
            setattr(module, attr, value)
        return False

    # ------------------------------------------------------------ analysis
    def __len__(self) -> int:
        return len(self.info)

    def self_times(self) -> list[float]:
        dur = [b - a for a, b in zip(self.t0, self.t1)]
        child = [0.0] * len(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        return [d - c for d, c in zip(dur, child)]

    def by_name(self, name: str) -> list[int]:
        nid = self._name_ids.get(name)
        return [i for i, n in enumerate(self.name) if n == nid]

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, raised, total and self milliseconds."""
        selfs = self.self_times()
        table = defaultdict(lambda: {"calls": 0, "raised": 0, "ms": 0.0, "self_ms": 0.0})
        for i, nid in enumerate(self.name):
            row = table[self.names[nid]]
            row["calls"] += 1
            row["ms"] += (self.t1[i] - self.t0[i]) * 1e3
            row["self_ms"] += selfs[i] * 1e3
            info = self.info[i]
            if isinstance(info, tuple) and info and info[0] == "raised":
                row["raised"] += 1
        return dict(sorted(table.items()))

    def write_jsonl(self, path) -> None:
        base = self.t0[0] if len(self) else 0.0
        with open(path, "w") as fh:
            for i, nid in enumerate(self.name):
                fh.write(json.dumps({
                    "id": i, "parent": self.parent[i], "name": self.names[nid],
                    "start_us": round((self.t0[i] - base) * 1e6, 3),
                    "end_us": round((self.t1[i] - base) * 1e6, 3),
                    "info": self.info[i],
                }, separators=(",", ":")) + "\n")
