"""Outside-in layer trace: wraps public library functions at every module
that holds them by name, and records calls, busy time and self time.

Self time is busy time minus the time spent in wrapped children.  The work
a wrapper does to read its arguments (box sizes, simplex classes) is kept
out of every span's time.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# Every traced function, with the library modules that import it by name.
# A listed site that no longer holds the function makes the traced run fail,
# because calls through it would silently escape the trace.  Sites found
# beyond these (the package namespace, say) are rebound as well.
SITES = {
    ("exactlp", "maximize"): (),  # geometry calls it through the module
    ("geometry", "intersection_is_common_face"): ("complexes",),
    ("counting", "count_simplex"): ("ehrhart",),
    ("counting", "count_relative_interior"): (),
    ("counting", "count_complex"): ("verify", "cli"),
    ("counting", "count_complex_additive"): ("verify", "cli"),
    ("ehrhart", "ehrhart_polynomial"): ("cli",),
    ("ehrhart", "verify_simplex_congruence"): ("verify",),
    ("complexes", "close_under_faces"): ("documents",),
    ("complexes", "validate"): ("documents",),
    ("complexes", "generate_complex"): ("verify", "cli"),
    ("documents", "parse_document"): (),
    ("documents", "read_document"): ("cli",),
    ("documents", "load_complex"): ("cli",),
    ("numtheory", "dilation_plan"): ("verify", "cli"),
    ("verify", "run_verify"): ("cli",),
    ("verify", "run_fuzz"): ("cli",),
    ("cli", "main"): (),
}

PACKAGE = "simplat"


class Span:
    __slots__ = ("calls", "busy", "self_time")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0


class Tracer:
    """install() puts the wrappers in place; uninstall() takes them off and
    checks that every site holds its original function again."""

    def __init__(self):
        self.spans = {f"{mod}.{name}": Span() for mod, name in SITES}
        self.box_points = 0
        self.points_found = 0
        self.subcheck_ehrhart = 0
        self.verify_additive = 0
        self.poly_repeats = 0
        self.poly_class_repeats = 0
        self._seen = set()
        self._seen_classes = set()
        self.active = True
        self._stack: list[list[float]] = []
        self._reading = 0.0  # time spent reading arguments, kept out of spans
        self._rebound: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        import simplat  # noqa: F401  (the package imports every module)
        modules = {name: mod for name, mod in sys.modules.items()
                   if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))}
        observers = {
            "counting.count_simplex": self._observe_simplex_count,
            "counting.count_relative_interior": self._observe_simplex_count,
            "counting.count_complex": self._observe_complex_count,
            "ehrhart.ehrhart_polynomial": self._observe_polynomial,
            "ehrhart.verify_simplex_congruence": self._observe_subcheck,
            "verify.run_verify": self._observe_verify,
        }
        self._box_points = modules[f"{PACKAGE}.counting"].box_points
        self._estimate = modules[f"{PACKAGE}.counting"].enumeration_estimate
        plan = []
        for (mod, name), importers in SITES.items():
            home = modules.get(f"{PACKAGE}.{mod}")
            original = getattr(home, name, None)
            if original is None or not callable(original):
                raise RuntimeError(f"trace site {mod}.{name} is missing")
            for importer in importers:
                if getattr(modules.get(f"{PACKAGE}.{importer}"), name, None) is not original:
                    raise RuntimeError(
                        f"trace site {importer}.{name} no longer holds {mod}.{name}")
            key = f"{mod}.{name}"
            wrapper = self._wrap(key, original, observers.get(key))
            holders = [m for m in modules.values() if getattr(m, name, None) is original]
            plan.extend((m, name, original, wrapper) for m in holders)
        for m, name, original, wrapper in plan:
            setattr(m, name, wrapper)
            self._rebound.append((m, name, original))

    def uninstall(self) -> None:
        for m, name, original in self._rebound:
            setattr(m, name, original)
        for m, name, original in self._rebound:
            if getattr(m, name) is not original:
                raise RuntimeError(f"{m.__name__}.{name} was not restored")
        self._rebound.clear()

    @property
    def sites(self) -> list[str]:
        return sorted(f"{m.__name__}.{name}" for m, name, _ in self._rebound)

    def _wrap(self, key, fn, observe):
        span = self.spans[key]
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            children = [0.0]
            stack.append(children)
            reading = self._reading
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start - (self._reading - reading)
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                span.calls += 1
                span.busy += elapsed
                span.self_time += elapsed - children[0]
            if observe is not None:
                begin = perf_counter()
                observe(args, kwargs, result)
                self._reading += perf_counter() - begin
            return result

        return wrapper

    # -- argument and result readers ---------------------------------------

    def _observe_simplex_count(self, args, kwargs, result):
        s = args[0]
        t = args[1] if len(args) > 1 else kwargs["t"]
        self.box_points += self._box_points(s, t)
        self.points_found += result

    def _observe_complex_count(self, args, kwargs, result):
        c = args[0]
        t = args[1] if len(args) > 1 else kwargs["t"]
        if c.faces:
            self.box_points += self._estimate(c, t)
        self.points_found += result

    def _observe_polynomial(self, args, kwargs, result):
        vertices = args[0].vertices
        if vertices in self._seen:
            self.poly_repeats += 1
        self._seen.add(vertices)
        base = min(vertices)
        cls = tuple(sorted(tuple(a - b for a, b in zip(v, base)) for v in vertices))
        if cls in self._seen_classes:
            self.poly_class_repeats += 1
        self._seen_classes.add(cls)

    def _observe_subcheck(self, args, kwargs, result):
        if result.method == "ehrhart":
            self.subcheck_ehrhart += 1

    def _observe_verify(self, args, kwargs, result):
        if result.method == "additive":
            self.verify_additive += 1

    # -- totals --------------------------------------------------------------

    def totals(self) -> dict:
        """Raw counters of everything traced so far."""
        out = {f"{key}.{field}": getattr(span, field)
               for key, span in self.spans.items()
               for field in ("calls", "busy", "self_time")}
        out.update(box_points=self.box_points, points_found=self.points_found,
                   subcheck_ehrhart=self.subcheck_ehrhart,
                   verify_additive=self.verify_additive,
                   poly_repeats=self.poly_repeats,
                   poly_class_repeats=self.poly_class_repeats)
        return out


def _ratio(a, b) -> float:
    return a / b if b else 0.0


# (name, unit): per-layer metrics derived from the totals of the ops window.
LAYER_METRICS = [
    ("exactlp.solves", "count/op"),
    ("exactlp.busy_s", "s/op"),
    ("exactlp.s_per_solve", "s"),
    ("geometry.pair_tests", "count/op"),
    ("geometry.pair_self_s", "s/op"),
    ("geometry.lp_per_pair", "ratio"),
    ("counting.enum_calls", "count/op"),
    ("counting.enum_busy_s", "s/op"),
    ("counting.box_points", "computed/op"),
    ("counting.points_found", "count/op"),
    ("counting.yield", "ratio"),
    ("counting.additive_self_s", "s/op"),
    ("ehrhart.poly_calls", "count/op"),
    ("ehrhart.poly_self_s", "s/op"),
    ("ehrhart.subcheck_s", "s/op"),
    ("ehrhart.subcheck_ehrhart_share", "ratio"),
    ("ehrhart.repeat_share", "ratio"),
    ("ehrhart.class_repeat_share", "ratio"),
    ("complexes.closure_s", "s/op"),
    ("complexes.validate_self_s", "s/op"),
    ("complexes.generate_s", "s/op"),
    ("documents.self_s", "s/op"),
    ("cli.self_s", "s/op"),
    ("numtheory.plan_s", "s/op"),
    ("verify.self_s", "s/op"),
    ("verify.additive_share", "ratio"),
]


def layer_metrics(t: dict, ops: int) -> dict:
    """Per-op and ratio metrics from summed totals over `ops` operations."""
    def get(key, field):
        return t[f"{key}.{field}"]

    enum_keys = ("counting.count_simplex", "counting.count_relative_interior",
                 "counting.count_complex")
    solves = get("exactlp.maximize", "calls")
    pairs = get("geometry.intersection_is_common_face", "calls")
    polys = get("ehrhart.ehrhart_polynomial", "calls")
    subchecks = get("ehrhart.verify_simplex_congruence", "calls")
    values = {
        "exactlp.solves": solves / ops,
        "exactlp.busy_s": get("exactlp.maximize", "busy") / ops,
        "exactlp.s_per_solve": _ratio(get("exactlp.maximize", "busy"), solves),
        "geometry.pair_tests": pairs / ops,
        "geometry.pair_self_s": get("geometry.intersection_is_common_face", "self_time") / ops,
        "geometry.lp_per_pair": _ratio(solves, pairs),
        "counting.enum_calls": sum(get(k, "calls") for k in enum_keys) / ops,
        "counting.enum_busy_s": sum(get(k, "busy") for k in enum_keys) / ops,
        "counting.box_points": t["box_points"] / ops,
        "counting.points_found": t["points_found"] / ops,
        "counting.yield": _ratio(t["points_found"], t["box_points"]),
        "counting.additive_self_s": get("counting.count_complex_additive", "self_time") / ops,
        "ehrhart.poly_calls": polys / ops,
        "ehrhart.poly_self_s": get("ehrhart.ehrhart_polynomial", "self_time") / ops,
        "ehrhart.subcheck_s": get("ehrhart.verify_simplex_congruence", "busy") / ops,
        "ehrhart.subcheck_ehrhart_share": _ratio(t["subcheck_ehrhart"], subchecks),
        "ehrhart.repeat_share": _ratio(t["poly_repeats"], polys),
        "ehrhart.class_repeat_share": _ratio(t["poly_class_repeats"], polys),
        "complexes.closure_s": get("complexes.close_under_faces", "busy") / ops,
        "complexes.validate_self_s": get("complexes.validate", "self_time") / ops,
        "complexes.generate_s": get("complexes.generate_complex", "busy") / ops,
        "documents.self_s": sum(get(f"documents.{n}", "self_time")
                                for n in ("parse_document", "read_document",
                                          "load_complex")) / ops,
        "cli.self_s": get("cli.main", "self_time") / ops,
        "numtheory.plan_s": get("numtheory.dilation_plan", "busy") / ops,
        "verify.self_s": (get("verify.run_verify", "self_time")
                          + get("verify.run_fuzz", "self_time")) / ops,
        "verify.additive_share": _ratio(t["verify_additive"],
                                        get("verify.run_verify", "calls")),
    }
    return {name: values[name] for name, _ in LAYER_METRICS}
