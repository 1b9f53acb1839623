"""Spans recorded from outside the package, by wrapping module attributes.

Every public function a layer exposes is replaced, on the module that
calls it, by a wrapper that records a span: name, start, end, the index of
the enclosing span and the scheme being run.  Spans stay in memory and
are folded into per-layer metrics when the worker ends.  A name that a
later version of the package no longer has is reported as absent and
leaves its span empty; nothing inside ``src/`` is changed.
"""

from __future__ import annotations

import inspect
import statistics
import time

SCHEMES = ("collective", "conventional")

# Per-layer metrics that are counts: two traced runs of one seed must
# report them identically.
COUNT_SUFFIXES = ("per_step", "columns_per_step", "iters_per_step",
                  "mb_computed", "observe.count", "output.mb")

NAME, START, END, PARENT, SCHEME, ATTRS = range(6)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.absent = []
        self.scheme = None

    def wrap(self, name, fn, attrs=None, args_hook=None):
        """Return fn recording one span per call.  ``attrs(args, result)``
        gives the span's attributes; ``args_hook(args, kwargs)`` may
        replace the arguments before the call."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            if args_hook is not None:
                args, kwargs = args_hook(args, kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    self.scheme, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if attrs is not None:
                span[ATTRS] = attrs(args, result)
            return result

        return traced

    def patch(self, module, attr, name, **options):
        fn = getattr(module, attr, None)
        if fn is None:
            self.absent.append(f"{module.__name__}.{attr}")
            return
        setattr(module, attr, self.wrap(name, fn, **options))


def _rhs_attrs(args, result):
    z = args[0]
    columns = 1 if z.ndim == 1 else z.shape[1]
    return (columns, z.nbytes + getattr(result, "nbytes", 0))


def _newton_attrs(args, result):
    report = result[1] if isinstance(result, tuple) and len(result) > 1 else None
    return getattr(report, "newton_iterations", 0)


def install(tracer, full):
    """Wrap the package's layer boundaries.  Untraced runs wrap only the
    fixed-step loop, whose entry and exit give set-up and step time."""
    import numpy
    from clebschflow import cli, dynamics, harness, reference

    integrate = getattr(harness, "integrate", None)
    hook = None
    if full and integrate is not None:
        signature = inspect.signature(integrate)

        def hook(args, kwargs):
            bound = signature.bind(*args, **kwargs)
            given = bound.arguments
            if "field" in given:
                given["field"] = tracer.wrap("hamiltonian.rhs", given["field"],
                                             attrs=_rhs_attrs)
            else:
                tracer.absent.append("integrate(field)")
            if given.get("observer") is not None:
                given["observer"] = tracer.wrap("harness.observe",
                                                given["observer"])
            return bound.args, bound.kwargs

    tracer.patch(harness, "integrate", "dynamics.integrate", args_hook=hook,
                 attrs=lambda args, result: result.steps_completed)
    if not full:
        return
    tracer.patch(cli, "run_experiment", "harness.run_experiment")
    tracer.patch(cli, "records_to_csv", "cli.records_to_csv")
    tracer.patch(cli, "finals_to_csv", "cli.finals_to_csv")
    tracer.patch(dynamics, "midpoint_step", "dynamics.step",
                 attrs=_newton_attrs)
    tracer.patch(dynamics, "fd_jacobian", "dynamics.jacobian")
    tracer.patch(numpy.linalg, "solve", "linalg.solve")
    tracer.patch(reference, "burgers_characteristics",
                 "reference.characteristics")


def _quantile(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(spans, observe_count, output_bytes):
    """Fold the spans of one traced worker into per-layer metrics.

    Self time is a span's duration minus the durations of its direct
    children.  Per-step figures divide by the completed midpoint steps of
    the scheme.
    """
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]

    def of(name, scheme=None, parent=None):
        return [(i, s) for i, s in enumerate(spans) if s[NAME] == name
                and (scheme is None or s[SCHEME] == scheme)
                and (parent is None or (s[PARENT] >= 0
                                        and spans[s[PARENT]][NAME] == parent))]

    def total(found):
        return sum(s[END] - s[START] for _, s in found)

    def self_total(found):
        return sum(s[END] - s[START] - child[i] for i, s in found)

    m = {}
    for scheme in SCHEMES:
        steps = of("dynamics.step", scheme)
        n = max(len(steps), 1)
        durations = [(s[END] - s[START]) * 1e3 for _, s in steps]
        jac = of("dynamics.jacobian", scheme)
        solve = of("linalg.solve", scheme, parent="dynamics.step")
        rhs = of("hamiltonian.rhs", scheme)
        single = [(s[END] - s[START]) * 1e6 for _, s in rhs
                  if s[ATTRS][0] == 1]
        batch = [s for _, s in rhs if s[ATTRS][0] > 1]
        batch_columns = sum(s[ATTRS][0] for s in batch)
        p = scheme + "."
        m[p + "dynamics.step.p50_ms"] = _quantile(durations, 50)
        m[p + "dynamics.step.p99_ms"] = _quantile(durations, 99)
        m[p + "dynamics.step.self_s"] = self_total(steps)
        m[p + "dynamics.newton.iters_per_step"] = (
            sum(s[ATTRS] or 0 for _, s in steps) / n)
        m[p + "dynamics.jacobian.per_step"] = len(jac) / n
        m[p + "dynamics.jacobian.self_s"] = self_total(jac)
        m[p + "linalg.solve.per_step"] = len(solve) / n
        m[p + "linalg.solve.s"] = total(solve)
        m[p + "hamiltonian.rhs.per_step"] = len(rhs) / n
        m[p + "hamiltonian.rhs.columns_per_step"] = (
            sum(s[ATTRS][0] for _, s in rhs) / n)
        m[p + "hamiltonian.rhs.s"] = total(rhs)
        m[p + "hamiltonian.rhs.single_us"] = _quantile(single, 50)
        m[p + "hamiltonian.rhs.batch_ns_per_column"] = (
            sum(s[END] - s[START] for s in batch) / batch_columns * 1e9
            if batch_columns else 0.0)
        m[p + "hamiltonian.rhs.mb_computed"] = (
            sum(s[ATTRS][1] for _, s in rhs) / 1e6)
        m[p + "harness.observe.self_s"] = self_total(of("harness.observe",
                                                        scheme))

    m["dynamics.integrate.self_s"] = self_total(of("dynamics.integrate"))
    m["harness.observe.count"] = observe_count
    def first_inside(i, name):
        return next((t for t in spans[i + 1:] if t[NAME] == name
                     and t[START] < spans[i][END]), None)

    setup = 0.0
    for i, s in of("harness.run_experiment"):
        first = first_inside(i, "dynamics.integrate")
        setup += (first[START] if first else s[END]) - s[START]
    m["harness.setup.s"] = setup
    m["reference.characteristics.s"] = total(of("reference.characteristics"))
    output = 0.0
    for i, s in of("cli.main"):
        first = first_inside(i, "cli.records_to_csv")
        if first is not None:
            output += s[END] - first[START]
    m["cli.output.s"] = output
    m["cli.output.mb"] = output_bytes / 1e6
    return m
