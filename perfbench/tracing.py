"""Per-layer tracing of gbgeom from outside the program.

``Tracer.install`` wraps the public functions of every gbgeom module in each
namespace where callers look them up (``gbgeom.planarity.reduced_basis`` as
well as ``gbgeom.groebner.reduced_basis``), and the arithmetic dunders of
``ParamPoly``, ``ParamFraction`` and ``Polynomial`` at class level.  Nothing
in the program changes; ``uninstall`` restores every original.

Calls into the non-arithmetic layers become spans: name, layer, parent,
duration and the time covered by children.  The coefficient and polynomial
layers run hundreds of thousands of calls per answer, so they are not
recorded one by one: each call adds to a counter and a self-time total kept
per (enclosing span, callable).  A call nested directly inside its own layer
is only counted, since its time already belongs to that layer.  A layer's
self time is its time minus the part covered by other layers' calls.
"""

from __future__ import annotations

import statistics
import sys
import time
from fractions import Fraction
from numbers import Rational

# Layers in the order the program's modules depend on each other.
LAYERS = (
    "coefficients", "polynomials", "division", "groebner", "planarity",
    "conoid", "parsing", "rendering", "cli",
)
# Layers whose calls are aggregated instead of recorded as spans.
AGGREGATED = {"coefficients", "polynomials", "rendering"}
ARITHMETIC = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__neg__", "__truediv__", "__rtruediv__", "__pow__",
)
# Public methods that do arithmetic work, traced with the class's layer.
METHODS = {
    "ParamPoly": ("exact_div", "content", "primitive", "mul_ground", "quo_ground", "evaluate"),
    "ParamFraction": ("invert", "evaluate"),
    "Polynomial": ("monic", "scale", "evaluate"),
}
# Text rendering is its own layer wherever it lives.
RENDERING = ("Polynomial", "ParamFraction", "ParamPoly")
# Span results kept for the per-layer counters, read after the answer ends.
KEEP_RESULT = {"normal_form", "buchberger", "reduce_basis", "multivariate_divide"}

OTHER = "other"  # answer time outside every gbgeom call: the harness itself


class Tracer:
    def __init__(self, package):
        self.package = package
        self.patches: list[tuple[object, str, object]] = []
        self.layer_of: dict[str, str] = {}
        # span: [id, parent id, name, layer, duration, child time, result]
        self.spans: list[list] = []
        # (enclosing span id, callable name) -> [calls, self time]
        self.agg: dict[tuple[int, str], list] = {}
        self.stack: list[list] = []

    def reset(self) -> None:
        """Drop the records of the previous pass; wrappers keep these objects."""
        self.spans.clear()
        self.agg.clear()
        self.stack.clear()

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "gbgeom" or name.startswith("gbgeom."))
        ]
        for layer in LAYERS:
            module = sys.modules.get(f"gbgeom.{layer}")
            if module is None:
                continue
            for name, value in list(vars(module).items()):
                if name.startswith("_") or not callable(value) or isinstance(value, type):
                    continue
                if getattr(value, "__module__", None) != module.__name__:
                    continue
                wrapper = (self._aggregated if layer in AGGREGATED else self._span)(
                    value, name, layer
                )
                for owner in modules:
                    if vars(owner).get(name) is value:
                        self._patch(owner, name, wrapper)
        for cls_name, layer in (
            ("ParamPoly", "coefficients"), ("ParamFraction", "coefficients"),
            ("Polynomial", "polynomials"),
        ):
            cls = getattr(self.package, cls_name)
            for name in ARITHMETIC + METHODS[cls_name]:
                original = vars(cls).get(name)
                if original is not None:
                    self._patch(cls, name, self._aggregated(original, f"{cls_name}.{name}", layer))
        for cls_name in RENDERING:
            cls = getattr(self.package, cls_name)
            self._patch(
                cls, "__str__",
                self._aggregated(vars(cls)["__str__"], f"{cls_name}.__str__", "rendering"),
            )

    def uninstall(self) -> None:
        for owner, name, original in reversed(self.patches):
            setattr(owner, name, original)
        self.patches.clear()

    def _patch(self, owner, name: str, wrapper) -> None:
        self.patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def _span(self, fn, name: str, layer: str):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        keep = name in KEEP_RESULT

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            record = [len(spans), parent[2], name, layer, 0.0, 0.0, None]
            spans.append(record)
            frame = [layer, 0.0, record[0]]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[1] += elapsed
                record[4] = elapsed
                record[5] = frame[1]
            if keep:
                record[6] = result
            return result

        traced.__wrapped__ = fn
        return traced

    def _aggregated(self, fn, name: str, layer: str):
        self.layer_of[name] = layer
        agg, stack, clock = self.agg, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            key = (parent[2], name)
            record = agg.get(key)
            if record is None:
                record = agg[key] = [0, 0.0]
            record[0] += 1
            if parent[0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0, parent[2]]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[1] += elapsed
                record[1] += elapsed - frame[1]

        traced.__wrapped__ = fn
        return traced

    # -- answering --------------------------------------------------------

    def run(self, call):
        """Run one answer under a root span; returns its result."""
        record = [len(self.spans), None, "answer", OTHER, 0.0, 0.0, None]
        self.spans.append(record)
        frame = [OTHER, 0.0, record[0]]
        self.stack.append(frame)
        start = time.perf_counter()
        try:
            return call()
        finally:
            record[4] = time.perf_counter() - start
            record[5] = frame[1]
            self.stack.clear()

    def totals(self) -> dict[str, float]:
        """Per-layer counters of the answers recorded since the last reset."""
        return layer_totals(self.spans, self.agg, self.layer_of)


def layer_totals(spans, agg, layer_of) -> dict[str, float]:
    """Per-layer counters from spans and aggregates."""
    self_s = dict.fromkeys(LAYERS + (OTHER,), 0.0)
    for span in spans:
        self_s[span[3]] += span[4] - span[5]
    calls: dict[str, int] = {}
    by_span: dict[int, dict[str, int]] = {}
    for (span_id, name), (count, seconds) in agg.items():
        self_s[layer_of[name]] += seconds
        calls[name] = calls.get(name, 0) + count
        by_span.setdefault(span_id, {})[name] = count

    names = {span[0]: span[2] for span in spans}
    parent = {span[0]: span[1] for span in spans}

    def under(span_id, ancestor_name):
        span_id = parent.get(span_id)
        while span_id is not None:
            if names[span_id] == ancestor_name:
                return True
            span_id = parent[span_id]
        return False

    def count(*wanted):
        return sum(1 for span in spans if span[2] in wanted)

    def count_calls(predicate):
        return sum(c for name, c in calls.items() if predicate(name))

    in_buchberger = [s for s in spans if s[1] is not None and names[s[1]] == "buchberger"]
    reductions = [s for s in in_buchberger if s[2] == "normal_form"]
    zero = sum(1 for s in reductions if not s[6])
    division_ids = [s[0] for s in spans if s[2] in ("multivariate_divide", "normal_form")]
    # A normal_form that delegates to multivariate_divide is one division.
    delegating = {s[1] for s in spans if s[2] == "multivariate_divide"}
    divisions = sum(
        1 for s in spans
        if s[2] == "multivariate_divide" or (s[2] == "normal_form" and s[0] not in delegating)
    )
    verdicts = count("final_verdict")
    bits, degree = 0, 0
    for span in spans:
        if span[2] == "reduce_basis" and span[6] is not None:
            b, d = coefficient_size(span[6])
        elif span[2] == "multivariate_divide" and names[span[1]] == "answer":
            b, d = coefficient_size([span[6].remainder])
        else:
            continue
        bits, degree = max(bits, b), max(degree, d)

    answer_s = sum(span[4] for span in spans if span[1] is None)
    out = {f"{layer}.self_s": self_s[layer] for layer in LAYERS + (OTHER,)}
    out.update({
        "coefficients.ops": count_calls(
            lambda n: n.startswith(("ParamFraction.__", "ParamPoly.__")) and not n.endswith("__str__")
        ),
        "coefficients.gcd_calls": calls.get("param_poly_gcd", 0),
        "coefficients.max_bits": bits,
        "coefficients.max_param_degree": degree,
        "polynomials.ops": count_calls(
            lambda n: n.startswith("Polynomial.__") and n.split(".")[1] in ARITHMETIC
        ),
        "division.calls": divisions,
        "division.steps": sum(
            by_span.get(i, {}).get("Polynomial.__sub__", 0) for i in division_ids
        ),
        "groebner.buchberger_s": sum(s[4] for s in spans if s[2] == "buchberger"),
        "groebner.reduce_basis_s": sum(s[4] for s in spans if s[2] == "reduce_basis"),
        "groebner.spairs": sum(1 for s in in_buchberger if s[2] == "s_polynomial"),
        "groebner.zero_reductions": zero,
        "groebner.useful_ratio": (len(reductions) - zero) / len(reductions) if reductions else 0.0,
        "groebner.basis_peak": max(
            (len(s[6]) for s in spans if s[2] == "buchberger" and s[6] is not None), default=0
        ),
        "planarity.calls": count("detect_planes", "scan_linear", "lt_membership"),
        "conoid.constraint_builds": (
            sum(1 for s in spans if s[2] == "conic_constraints" and under(s[0], "final_verdict"))
            / verdicts if verdicts else 0.0
        ),
        "conoid.basis_calls": (
            sum(1 for s in spans if s[2] == "reduced_basis" and under(s[0], "final_verdict"))
            / verdicts if verdicts else 0.0
        ),
        "parsing.calls": count("parse_expression", "parse_system", "read_system"),
        "rendering.calls": calls.get("render", 0) + calls.get("Polynomial.__str__", 0),
        "trace.accounted_share": (answer_s - self_s[OTHER]) / answer_s if answer_s else 0.0,
    })
    return out


def coefficient_size(polynomials) -> tuple[int, int]:
    """Largest coefficient bit length and parameter degree over some polynomials.

    Reads the public term structure: a coefficient is either a rational or a
    fraction whose ``num``/``den`` carry ``terms`` of (exponents, rational).
    """
    bits = degree = 0
    for p in polynomials:
        for term in p.terms:
            c = term[0]
            if isinstance(c, Rational):
                parts = [((), Fraction(c))]
            else:
                parts = list(c.num.terms) + list(c.den.terms)
            for exps, q in parts:
                bits = max(bits, q.numerator.bit_length(), q.denominator.bit_length())
                degree = max(degree, sum(exps))
    return bits, degree


def median_totals(passes: list[dict[str, float]]) -> dict[str, float]:
    """Per-metric median over traced passes."""
    return {key: statistics.median_low(p[key] for p in passes) for key in passes[0]}
