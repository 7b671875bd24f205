"""In-memory span tracing of geomrep layer calls, installed from outside the library.

Each traced function is replaced by a wrapper that records one span per call:
name, parent span, operation id, start and end.  The wrapper is bound on every
``geomrep`` module that holds the original object (for example both
``constructions.correlation_group`` and ``cli.correlation_group``), so calls
between layers are spanned too.  Self time of a span is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import collections
import functools
import json
import sys
import time

LAYERS = ("incidence", "perms", "autsearch", "galois", "constructions", "freegroup", "cli")

# (module, attribute path, span name, counter extractor or None).  A counter
# extractor maps (args, result) to a dict of counter increments.
_PAIRS = lambda args, res: {"pairs": int(args[0].pairs.shape[0])}  # noqa: E731
_BYTES = lambda args, res: {"bytes": len(res)}  # noqa: E731
_ACCEPT = lambda args, res: {"accepted": int(res is not None)}  # noqa: E731
_ELEMENTS = lambda args, res: {"elements": len(res)}  # noqa: E731
_CHECKED = lambda args, res: {"checked": int(res.checked)}  # noqa: E731
_WORDS = lambda args, res: {"words": int(res.words_checked)}  # noqa: E731

TARGETS = (
    ("incidence", "IncidenceSystem.__init__", "incidence.init", _PAIRS),
    ("incidence", "IncidenceSystem.truncation", "incidence.truncation", None),
    ("incidence", "IncidenceSystem.to_json", "incidence.to_json", _BYTES),
    ("incidence", "IncidenceSystem.from_json", "incidence.from_json", None),
    ("incidence", "IncidenceSystem.validate", "incidence.validate", None),
    ("incidence", "IncidenceSystem.is_geometry", "incidence.predicates", None),
    ("incidence", "IncidenceSystem.is_firm", "incidence.predicates", None),
    ("incidence", "IncidenceSystem.is_residually_connected", "incidence.predicates", None),
    ("autsearch", "correlation_group", "autsearch.correlation_group", None),
    ("autsearch", "find_isomorphism", "autsearch.find_isomorphism", None),
    ("autsearch", "type_preserving_group", "autsearch.type_preserving_group", None),
    ("autsearch", "correlation_type_action", "autsearch.correlation_type_action", _ACCEPT),
    ("autsearch", "verify_representation", "autsearch.verify_representation", None),
    ("perms", "PermGroup.__init__", "perms.permgroup_init", None),
    ("perms", "PermGroup.induced_action", "perms.induced_action", None),
    ("perms", "PermGroup.enumerate_elements", "perms.enumerate_elements", _ELEMENTS),
    *(
        ("galois", name, "galois", None)
        for name in (
            "make_field", "projective_space", "incident", "duality_map",
            "frobenius_point_map", "FiniteField.add", "FiniteField.neg",
            "FiniteField.sub", "FiniteField.mul", "FiniteField.inv", "FiniteField.div",
            "FiniteField.pow", "ProjectiveSubspace.from_rows", "ProjectiveSpace.points_in",
        )
    ),
    ("constructions", "pgl_cross_ratio_geometry", "constructions.pgl_cross_ratio_geometry", None),
    ("constructions", "pgl_aut_via_extension", "constructions.pgl_aut_via_extension", None),
    (
        "constructions", "extend_truncation_correlation",
        "constructions.extend_truncation_correlation", _ACCEPT,
    ),
    ("constructions", "coset_geometry", "constructions.coset_geometry", None),
    ("constructions", "check_ft_condition", "constructions.check_ft_condition", _CHECKED),
    ("constructions", "check_rc_condition", "constructions.check_rc_condition", _CHECKED),
    ("constructions", "frobenius_truncation_perm", "constructions.other", None),
    ("constructions", "duality_truncation_perm", "constructions.other", None),
    *(
        ("freegroup", name, f"freegroup.{name}", None)
        for name in (
            "stallings_graph", "intersection", "membership", "graph_basis",
            "product_membership", "subgroup_action",
        )
    ),
    ("freegroup", "bounded_ft_check", "freegroup.bounded_ft_check", _WORDS),
    ("freegroup", "rc_check_exact", "freegroup.rc_check_exact", _CHECKED),
    ("cli", "main", "cli.main", None),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name, _ in TARGETS))

# Ratio metrics: name -> span; accepted results over calls of that span.
_RATIOS = {
    "autsearch.correlation_type_action.accept_ratio": "autsearch.correlation_type_action",
    "constructions.extend_truncation_correlation.extended_ratio": (
        "constructions.extend_truncation_correlation"
    ),
}
# Counter metrics reported as plain counts: name -> (span, counter).
_COUNTS = {
    "incidence.init.pairs": ("incidence.init", "pairs"),
    "incidence.to_json.bytes": ("incidence.to_json", "bytes"),
    "perms.enumerate_elements.elements": ("perms.enumerate_elements", "elements"),
    "constructions.check_ft_condition.checked": ("constructions.check_ft_condition", "checked"),
    "constructions.check_rc_condition.checked": ("constructions.check_rc_condition", "checked"),
    "freegroup.bounded_ft_check.words": ("freegroup.bounded_ft_check", "words"),
    "freegroup.rc_check_exact.checked": ("freegroup.rc_check_exact", "checked"),
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units: dict[str, str] = {}
    for span in SPAN_NAMES:
        units[f"{span}.calls"] = "count"
        units[f"{span}.self_s"] = "s"
    for name in _COUNTS:
        units[name] = "bytes" if name.endswith(".bytes") else "count"
    for name in _RATIOS:
        units[name] = "ratio"
    for layer in (*LAYERS, "bench"):
        units[f"{layer}.self_s"] = "s"
    units["trace.spans"] = "count"
    units["trace.overhead_ratio"] = "ratio"
    return units


class Tracer:
    """Records spans of wrapped library calls and of benchmark operations."""

    def __init__(self) -> None:
        # span: [name, parent index, op id, start, end]
        self.spans: list[list] = []
        self.counters: dict[str, collections.Counter] = collections.defaultdict(
            collections.Counter
        )
        self._stack: list[int] = []
        self._op = -1

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, self._op, time.perf_counter(), None])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][4] = time.perf_counter()
        # an operation cancelled mid-call unwinds every open span above it
        while self._stack and self._stack.pop() != sid:
            pass

    def operation(self, op_id: int, fn):
        """Run fn as benchmark operation op_id under a root span named 'bench'."""
        self._op = op_id
        sid = self._open("bench")
        try:
            return fn()
        finally:
            self._close(sid)

    def wrap(self, fn, name: str, extract):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid)
            if extract is not None:
                tracer.counters[name].update(extract(args, result))
            return result

        return traced

    def install(self) -> None:
        """Replace every target in the loaded geomrep modules by its traced wrapper."""
        modules = [m for k, m in sys.modules.items() if k == "geomrep" or k.startswith("geomrep.")]
        for module_name, path, span, extract in TARGETS:
            home = sys.modules[f"geomrep.{module_name}"]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(home, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(self.wrap(raw.__func__, span, extract)))
                else:
                    setattr(cls, attr, self.wrap(raw, span, extract))
                continue
            original = getattr(home, path)
            wrapped = self.wrap(original, span, extract)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)

    def summary(self, passes: int, traced_wall_s: float, untraced_wall_s: float) -> dict[str, float]:
        """Per-layer metrics derived from the spans of `passes` passes, per pass.

        How many passes fit in a run depends on the host's speed; per pass, the
        counts repeat exactly between runs.
        """
        # a span the bound interrupted before it closed counts as empty
        durations = [(s[3] if s[4] is None else s[4]) - s[3] for s in self.spans]
        self_time = list(durations)
        for s, d in zip(self.spans, durations):
            if s[1] >= 0:
                self_time[s[1]] -= d
        calls: collections.Counter = collections.Counter()
        self_s: dict[str, float] = collections.defaultdict(float)
        for s, t in zip(self.spans, self_time):
            calls[s[0]] += 1
            self_s[s[0]] += t
        out: dict[str, float] = {}
        for span in SPAN_NAMES:
            out[f"{span}.calls"] = calls[span] / passes
            out[f"{span}.self_s"] = self_s[span] / passes
        for name, (span, counter) in _COUNTS.items():
            out[name] = self.counters[span][counter] / passes
        for name, span in _RATIOS.items():
            accepted = self.counters[span]["accepted"]
            out[name] = accepted / calls[span] if calls[span] else 0.0
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                t for name, t in self_s.items() if name.split(".")[0] == layer
            ) / passes
        out["bench.self_s"] = self_s["bench"] / passes
        out["trace.spans"] = len(self.spans) / passes
        out["trace.overhead_ratio"] = traced_wall_s / untraced_wall_s
        return out

    def dump(self, path: str, metrics: dict[str, float]) -> None:
        """Write the spans and the derived metrics as one JSON document."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "span_fields": ["name", "parent", "op", "start_s", "end_s"],
                    "spans": self.spans,
                    "metrics": metrics,
                },
                fh,
            )
