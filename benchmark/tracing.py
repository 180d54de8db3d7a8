"""Outside-in span tracing of the asymkit modules.

The tracer replaces, in every asymkit module namespace that binds it, each
public function with a wrapper that records a span.  It also wraps each
class constructor and the public methods of ``IrrepDecomposition`` and
``QuantumChannel``.  Nothing in ``src/`` is changed: the wrappers live here
and are installed at run time, after the untraced measurement is done.

A span is (id, parent id, op id, name, start ns, end ns, self ns, raised).
Spans stay in memory, in flat arrays, until the run ends.  A span's self time
is its duration minus the time covered by its direct children; calls are
single-threaded, so children never overlap.
"""

from __future__ import annotations

import enum
import functools
import importlib
import inspect
import time
from array import array

import numpy as np

LAYERS = (
    "groups",
    "reps",
    "states",
    "equivalence",
    "approx",
    "bochner",
    "channels",
    "jsonio",
    "cli",
    "linalg",
)

_FIELDS = ("span_id", "parent", "op_id", "name_id", "start", "end", "self_ns", "raised")

# Classes whose public methods are traced, besides every constructor.
_METHOD_CLASSES = ("IrrepDecomposition", "QuantumChannel")

_JSONIO_PARSE = ("pair_to_complex",)
_JSONIO_EMIT = ("round12", "complex_to_pair", "canonical_dumps")

# Named per-layer metrics: (metric name, span name, field).
_NAMED = (
    ("reps.UnitaryRep.calls", "reps.UnitaryRep", "calls"),
    ("reps.UnitaryRep.self_s", "reps.UnitaryRep", "self_s"),
    ("reps.regular_rep.self_s", "reps.regular_rep", "self_s"),
    ("reps.decompose.calls", "reps.decompose", "calls"),
    ("reps.decompose.self_s", "reps.decompose", "self_s"),
    ("reps.twirl_operator.self_s", "reps.twirl_operator", "self_s"),
    ("reps.reconstruction_residual.self_s", "reps.reconstruction_residual", "self_s"),
    ("reps.block_matrix.calls", "reps.block_matrix", "calls"),
    ("groups.GroupTable.self_s", "groups.GroupTable", "self_s"),
    ("states.charfunc.self_s", "states.charfunc", "self_s"),
    ("states.reduction_onto_irreps.self_s", "states.reduction_onto_irreps", "self_s"),
    ("states.convolve.calls", "states.convolve", "calls"),
    (
        "equivalence.decide_unitary_g_equivalence.self_s",
        "equivalence.decide_unitary_g_equivalence",
        "self_s",
    ),
    ("equivalence.decide_g_equivalence.self_s", "equivalence.decide_g_equivalence", "self_s"),
    ("approx.max_overlap.self_s", "approx.max_overlap", "self_s"),
    ("approx.bound_from_charfunc.self_s", "approx.bound_from_charfunc", "self_s"),
    ("bochner.gns_construct.self_s", "bochner.gns_construct", "self_s"),
    ("bochner.is_positive_definite.self_s", "bochner.is_positive_definite", "self_s"),
    ("channels.QuantumChannel.self_s", "channels.QuantumChannel", "self_s"),
    ("channels.twirl_channel.self_s", "channels.twirl_channel", "self_s"),
    ("channels.is_g_covariant.self_s", "channels.is_g_covariant", "self_s"),
    ("channels.embed_channel.self_s", "channels.embed_channel", "self_s"),
    ("cli.main.self_s", "cli.main", "self_s"),
    ("linalg.frob.calls", "linalg.frob", "calls"),
    ("linalg.psd_sqrt.calls", "linalg.psd_sqrt", "calls"),
    ("linalg.trace_norm.calls", "linalg.trace_norm", "calls"),
)


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric a traced run reports."""
    specs = []
    for layer in LAYERS:
        specs += [
            (f"{layer}.calls", "count", "lower"),
            (f"{layer}.self_s", "s", "lower"),
            (f"{layer}.errors", "count", "lower"),
        ]
    for name, _, field in _NAMED:
        specs.append((name, "count" if field == "calls" else "s", "lower"))
    specs += [
        ("reps.decompose.attempts", "count", "lower"),
        ("reps.decompose.first_try_ratio", "ratio", "higher"),
        ("reps.mats_bytes", "B_computed", "lower"),
        ("jsonio.parse_s", "s", "lower"),
        ("jsonio.emit_s", "s", "lower"),
        ("jsonio.bytes_out", "B", "lower"),
        ("trace.spans", "count", "lower"),
        ("trace.slowdown", "ratio", "lower"),
    ]
    return specs


class Tracer:
    """Records spans of calls into asymkit once :meth:`install` has run."""

    def __init__(self):
        self.names: list[str] = []
        # One entry per span, in order of span end.
        self.span_id = array("l")
        self.parent = array("l")
        self.op_id = array("l")
        self.name_id = array("h")
        self.start = array("q")
        self.end = array("q")
        self.self_ns = array("q")
        self.raised = array("b")
        self.stats: dict[str, list[int]] = {}  # name -> [calls, self ns, errors]
        self.op = -1
        self.mats_bytes = 0
        self.decompose_attempts = 0
        self._stack: list[list[int]] = []
        self._next_id = 0
        self._open_decomposes = 0

    def _span(self, name: str, fn, after=None):
        name_id = len(self.names)
        self.names.append(name)
        stats = self.stats.setdefault(name, [0, 0, 0])
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self
        is_decompose = name == "reps.decompose"
        is_attempt = name == "reps.twirl_operator"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0]
            stack.append(frame)
            if is_decompose:
                tracer._open_decomposes += 1
            elif is_attempt and tracer._open_decomposes:
                tracer.decompose_attempts += 1
            raised = 1
            start = clock()
            try:
                out = fn(*args, **kwargs)
                raised = 0
            finally:
                end = clock()
                stack.pop()
                if is_decompose:
                    tracer._open_decomposes -= 1
                if stack:
                    stack[-1][1] += end - start
                own = end - start - frame[1]
                stats[0] += 1
                stats[1] += own
                stats[2] += raised
                tracer.span_id.append(sid)
                tracer.parent.append(parent)
                tracer.op_id.append(tracer.op)
                tracer.name_id.append(name_id)
                tracer.start.append(start)
                tracer.end.append(end)
                tracer.self_ns.append(own)
                tracer.raised.append(raised)
            if after is not None:
                after(args)
            return out

        return traced

    def install(self, asymkit) -> int:
        """Wrap every traced callable in every asymkit namespace; return the count."""
        modules = [asymkit] + [importlib.import_module(f"asymkit.{m}") for m in LAYERS]
        wrapped: dict[int, object] = {}
        for mod in modules[1:]:
            layer = mod.__name__.rsplit(".", 1)[1]
            for name, obj in vars(mod).items():
                if getattr(obj, "__module__", None) != mod.__name__ or name.startswith("_"):
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = self._span(f"{layer}.{name}", obj)
                elif inspect.isclass(obj) and not issubclass(obj, (BaseException, enum.Enum)):
                    self._wrap_class(layer, obj)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    setattr(mod, name, wrapped[id(obj)])
                elif isinstance(obj, dict):
                    # Dispatch tables such as the CLI's group makers hold
                    # their own references to the functions.
                    for key, val in obj.items():
                        if id(val) in wrapped:
                            obj[key] = wrapped[id(val)]
        return len(self.names)

    def _wrap_class(self, layer: str, cls) -> None:
        if "__init__" in vars(cls):
            after = self._count_rep_bytes if cls.__name__ == "UnitaryRep" else None
            cls.__init__ = self._span(f"{layer}.{cls.__name__}", cls.__init__, after)
        if cls.__name__ in _METHOD_CLASSES:
            for name, obj in list(vars(cls).items()):
                if inspect.isfunction(obj) and not name.startswith("_"):
                    setattr(cls, name, self._span(f"{layer}.{name}", obj))

    def _count_rep_bytes(self, args) -> None:
        rep = args[0]
        self.mats_bytes += rep.group.order * rep.dim * rep.dim * 16

    def metrics(self, bytes_out: int, slowdown: float) -> dict[str, float]:
        """Aggregate the recorded spans into the per-layer metrics."""
        out: dict[str, float] = {}
        for layer in LAYERS:
            rows = [r for n, r in self.stats.items() if n.split(".", 1)[0] == layer]
            out[f"{layer}.calls"] = sum(r[0] for r in rows)
            out[f"{layer}.self_s"] = sum(r[1] for r in rows) / 1e9
            out[f"{layer}.errors"] = sum(r[2] for r in rows)
        for metric, span, field in _NAMED:
            calls, self_ns, _ = self.stats.get(span, (0, 0, 0))
            out[metric] = calls if field == "calls" else self_ns / 1e9
        decomposes = self.stats.get("reps.decompose", (0,))[0]
        attempts = self.decompose_attempts
        out["reps.decompose.attempts"] = attempts
        out["reps.decompose.first_try_ratio"] = decomposes / attempts if attempts else 1.0
        out["reps.mats_bytes"] = self.mats_bytes
        out["jsonio.parse_s"] = self._jsonio_self_s("_from_json", _JSONIO_PARSE)
        out["jsonio.emit_s"] = self._jsonio_self_s("_to_json", _JSONIO_EMIT)
        out["jsonio.bytes_out"] = bytes_out
        out["trace.spans"] = len(self.span_id)
        out["trace.slowdown"] = slowdown
        return out

    def _jsonio_self_s(self, suffix: str, extra: tuple[str, ...]) -> float:
        return sum(
            r[1]
            for n, r in self.stats.items()
            if n.startswith("jsonio.") and (n.endswith(suffix) or n[len("jsonio."):] in extra)
        ) / 1e9

    def dump(self, path) -> None:
        """Write the spans as one numpy archive: a column per field, plus the names."""
        np.savez(
            path,
            names=np.array(self.names),
            **{
                field: np.frombuffer(getattr(self, field), dtype=getattr(self, field).typecode)
                for field in _FIELDS
            },
        )
