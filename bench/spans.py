"""Span tracer that wraps pqclab's public functions from outside the package.

``Tracer.install()`` replaces every ``pqclab.*`` module binding of each
function in TRACED (and the two validating ``__post_init__`` methods) with a
wrapper that records one span per call: name, start, end, parent span and
whether the call returned.  Spans stay in flat in-memory arrays and are
reduced once, by ``summary()``, into per-function totals, self times and
call counts.  ``uninstall()`` puts every original binding back.

Time spent in an untraced helper is charged to the nearest traced caller, so
a layer's self time is the time its traced functions spent outside any
other traced function.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

LAYERS = ("cli", "protocols", "reductions", "qmath", "entropy")

# layer -> public functions wrapped; each span is named <layer>.<function>
TRACED = {
    "cli": ("main",),
    "protocols": ("security_deviations", "verify_correctness", "channel_on_units",
                  "factorization_deviation", "encode", "decode_per_key",
                  "require_desk_scale", "build_named", "resource_report",
                  "protocol_digest"),
    "reductions": ("lift_extra_comm", "lift_extra_epr", "audit_quantum_input",
                   "audit_classical_input"),
    "qmath": ("apply_gate", "reduced_from_vector", "trace_distance", "compose_circuit",
              "partial_trace", "random_density"),
    "entropy": ("entropy_of_group", "von_neumann", "check_entropy_inequalities",
                "check_correlation_bounds", "mutual_information", "relative_entropy",
                "classicality_deviation"),
}
# (class in pqclab.qmath, span name): its __post_init__ is the validation
VALIDATORS = (("DensityOp", "qmath.DensityOp.validate"),
              ("UnitaryOp", "qmath.UnitaryOp.validate"))
LIFTS = ("reductions.lift_extra_comm", "reductions.lift_extra_epr")
AUDITS = ("reductions.audit_quantum_input", "reductions.audit_classical_input")


def span_names() -> list[str]:
    names = [f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns]
    return names + [name for _, name in VALIDATORS]


class Tracer:
    def __init__(self):
        self.names = span_names()
        self.name_ids = {name: i for i, name in enumerate(self.names)}
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.returned = array("b")
        self.outermost = array("b")  # not nested in a span of the same name
        self.compose_bytes = 0
        self._stack: list[int] = []
        self._depth = [0] * len(self.names)
        self._saved: list[tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = self.name_ids[name]
        stack, depth = self._stack, self._depth
        span_name, parent, start, end = self.span_name, self.parent, self.start, self.end
        returned, outermost = self.returned, self.outermost
        clock = time.perf_counter
        count_bytes = name == "qmath.compose_circuit"

        def traced(*args, **kwargs):
            if count_bytes:  # the dense d x d complex identity it builds
                self.compose_bytes += 16 * int(np.prod(list(args[0]))) ** 2
            idx = len(span_name)
            span_name.append(nid)
            parent.append(stack[-1] if stack else -1)
            outermost.append(depth[nid] == 0)
            returned.append(0)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            depth[nid] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                returned[idx] = 1
                return result
            finally:
                end[idx] = clock()
                start[idx] = t0
                depth[nid] -= 1
                stack.pop()

        return traced

    def _targets(self):
        """(owner, attribute, original, span name) for every binding to replace."""
        import pqclab.cli  # noqa: F401  (loads every layer)
        originals = {}
        for layer, fns in TRACED.items():
            module = sys.modules[f"pqclab.{layer}"]
            for fn in fns:
                originals[id(getattr(module, fn))] = f"{layer}.{fn}"
        modules = [m for key, m in list(sys.modules.items())
                   if key == "pqclab" or key.startswith("pqclab.")]
        for module in modules:
            for attr, value in vars(module).items():
                if id(value) in originals:
                    yield module, attr, value, originals[id(value)]
        for cls_name, name in VALIDATORS:
            cls = getattr(sys.modules["pqclab.qmath"], cls_name)
            yield cls, "__post_init__", vars(cls)["__post_init__"], name

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, object] = {}
        for owner, attr, original, name in list(self._targets()):
            if id(original) not in wrappers:
                wrappers[id(original)] = self._wrap(name, original)
            setattr(owner, attr, wrappers[id(original)])
            self._saved.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)

    def restored(self) -> bool:
        """True when every binding the tracer replaced holds its original again."""
        return all(vars(owner).get(attr) is original for owner, attr, original in self._saved)

    # -- reduction ----------------------------------------------------------

    def summary(self) -> dict:
        """Per-span-name totals: ``s`` (outermost calls only), ``self_s`` and
        ``calls``, plus the counters the per-layer metrics need."""
        n = len(self.names)
        names, parent = np.asarray(self.span_name), np.asarray(self.parent)
        dur = np.asarray(self.end) - np.asarray(self.start)
        outer = np.asarray(self.outermost).astype(bool)
        returned = np.asarray(self.returned).astype(bool)

        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child_time[:len(dur)]
        total = np.bincount(names[outer], weights=dur[outer], minlength=n)
        self_s = np.bincount(names, weights=self_time, minlength=n)
        calls = np.bincount(names, minlength=n)
        functions = {name: {"s": float(total[i]), "self_s": float(self_s[i]),
                            "calls": int(calls[i])}
                     for i, name in enumerate(self.names)}

        # a lift is verified when it returned and the audit that built it returned:
        # an audit re-verifies every lifted protocol before it returns
        lift_ids = {self.name_ids[name] for name in LIFTS}
        audit_ids = {self.name_ids[name] for name in AUDITS}
        attempted = verified = 0
        for idx in np.flatnonzero(np.isin(names, list(lift_ids))):
            attempted += 1
            ok = bool(returned[idx])
            up = parent[idx]
            while ok and up >= 0 and names[up] not in audit_ids:
                up = parent[up]
            if ok and up >= 0:
                ok = bool(returned[up])
            verified += ok
        return {"functions": functions, "compose_circuit_bytes": self.compose_bytes,
                "lifts_attempted": attempted, "lifts_verified": verified}
