"""The four workloads: their inputs, one round of operations, and checks.

``build(name, seed)`` makes a workload's inputs: this is the set-up that
``setup_s`` times.  A workload is a list of :class:`Op`; a round runs
every op once, in order.  ``Op.run`` is the timed call into cesarops and
``Op.check`` looks at its output afterwards, against the independent
computations of :mod:`reference`, returning a list of problems (empty
when the output is correct).  References are computed once per run and
shared by every round.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable

import numpy as np

import cesarops
import cesarops.cli
import cesarops.verify
import reference as ref

#: relative slack of the Parseval bracket, against rounding only
BRACKET_SLACK = 1e-9
#: Besov quadrature against its closed form or dense reference, relative
BESOV_RTOL = 1e-8
#: criterion 05: the two representations of the operator agree
ROUTE_TOL = 1e-8
#: moments against their closed forms: absolute plus relative part
MOMENT_ATOL = 1e-11
MOMENT_RTOL = 1e-9


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], list]


@dataclass
class Workload:
    ops: list
    warmup: Callable[[], Any]


def _close(value, expected, rtol, atol=0.0):
    return abs(value - expected) <= atol + rtol * abs(expected)


def _components(name):
    return cesarops.measure_to_dict(
        cesarops.load_builtin_measure(name))["components"]


def closed_form_moments(components, n_max):
    """Moments of power densities (beta = 0) and atoms, in closed form."""
    out = np.zeros(n_max + 1)
    for comp in components:
        if comp["kind"] == "point":
            out += ref.atom_moments(comp["w"], comp["t0"], n_max)
        elif comp["kind"] == "power_log" and comp["beta"] == 0.0:
            out += ref.power_moments(comp["c"], comp["gamma"], n_max)
        else:
            raise ValueError("no closed form for %r" % (comp,))
    return out


# --------------------------------------------------------------------------
# verify-p2: the CLI experiments at p = s = 2


VERIFY_RUNS = (
    ("boundedness", "lebesgue", "not bounded"),
    ("compactness", "atom09", "compact-consistent"),
)
VERIFY_P = VERIFY_S = 2.0


def _verify_argv(theorem, measure, *extra):
    return ["verify", "--theorem", theorem, "--measure", measure,
            "--p", "2", "--s", "2", *extra]


def _run_cli(argv):
    """``cesarops.cli.main(argv)`` with its report captured, plus the
    value of every ``besov_norm`` call made from ``cesarops.verify``
    (the report carries only ratios of the Besov values)."""
    records = []
    original = cesarops.verify.besov_norm

    def tap(f, p, **kwargs):
        est = original(f, p, **kwargs)
        records.append((f.coeffs, p, est.value))
        return est

    out = io.StringIO()
    cesarops.verify.besov_norm = tap
    try:
        with contextlib.redirect_stdout(out):
            code = cesarops.cli.main(argv)
    finally:
        cesarops.verify.besov_norm = original
    return code, out.getvalue(), records


def ladder_degree(j: int) -> int:
    """Truncation degree of rung j at the default experiment config."""
    return min(max(8 * 2 ** j, 256), 2 ** 15)


@lru_cache(maxsize=None)
def verify_rungs(measure):
    """Per rung j = 1..12: (t, closed-form Besov norm of f_t, Parseval
    bracket of the mean-Lipschitz norm of C_mu f_t)."""
    mu = closed_form_moments(_components(measure), 2 ** 15)
    rungs = []
    for j in range(1, 13):
        t = 1.0 - 2.0 ** -j
        f = ref.test_coefficients(t, VERIFY_P, ladder_degree(j))
        bracket = ref.lipschitz_bracket(ref.image_coefficients(mu, f),
                                        1.0 / VERIFY_S)
        rungs.append((t, ref.besov_p2(f), bracket))
    return rungs


def check_verify(theorem, measure, verdict, output):
    code, text, records = output
    if code != 0:
        return ["exit code %d" % code]
    report = json.loads(text)
    problems = []
    if report["verdict"] != verdict:
        problems.append("verdict %r, expected %r" % (report["verdict"],
                                                     verdict))
    if report["consistent"] is not True:
        problems.append("report is not consistent")
    rungs = verify_rungs(measure)
    if len(report["ladder"]) != len(rungs):
        return problems + ["ladder has %d rungs" % len(report["ladder"])]
    for entry, (t, besov, (lo, hi)) in zip(report["ladder"], rungs):
        if entry["t"] != t:
            problems.append("rung t = %r, expected %r" % (entry["t"], t))
        # boundedness reports |C f| / |f|, compactness the raw |C f|
        lip = entry["ratio"] * (besov if theorem == "boundedness" else 1.0)
        if not lo * (1 - BRACKET_SLACK) <= lip <= hi * (1 + BRACKET_SLACK):
            problems.append("t = %r: mean-Lipschitz %.17g outside "
                            "[%.17g, %.17g]" % (t, lip, lo, hi))
    for coeffs, p, value in records:
        expected = ref.besov_p2(coeffs) if p == 2.0 else None
        if expected is None or not _close(value, expected, BESOV_RTOL):
            problems.append("besov_norm %.17g at p = %g, closed form %r"
                            % (value, p, expected))
    return problems


def build_verify(seed):
    ops = [Op("%s/%s" % (theorem, measure),
              lambda argv=_verify_argv(theorem, measure): _run_cli(argv),
              lambda out, args=(theorem, measure, verdict):
              check_verify(*args, out))
           for theorem, measure, verdict in VERIFY_RUNS]
    short = _verify_argv("boundedness", "lebesgue", "--ladder-depth", "6")
    return Workload(ops, lambda: _run_cli(short))


# --------------------------------------------------------------------------
# integral-route: the integral representation at degree 4096


ROUTE_MEASURES = ("lebesgue", "power_half", "power_two", "log_one",
                  "mix_atom_power", "hat_table")
ROUTE_DEGREE = 4096
ROUTE_KINDS = ("integral", "derivative")


def route_functions(seed):
    rng = np.random.default_rng(seed)
    k = np.arange(1, ROUTE_DEGREE + 2)
    noise = rng.standard_normal((2, k.size))
    return rng, {
        "log": cesarops.log_series(ROUTE_DEGREE),
        "test": cesarops.test_function(0.9, 2.0, ROUTE_DEGREE),
        "random": cesarops.PowerSeries((noise[0] + 1j * noise[1])
                                       / (math.sqrt(2.0) * k)),
    }


def route_points(rng, count):
    """``count`` points with 0.3 <= |z| < 0.9, stratified in radius and in
    angle, so that every seed spreads each measure's integral and
    derivative calls over the whole range and the cost of a round hardly
    depends on the seed."""
    radii = 0.3 + 0.6 * (rng.permutation(count) + rng.random(count)) / count
    angles = 2 * math.pi * (rng.permutation(count)
                            + rng.random(count)) / count
    return radii * np.exp(1j * angles)


@lru_cache(maxsize=None)
def _coefficient_route(measure, fname, kind, seed):
    _, functions = route_functions(seed)
    mu = cesarops.moments(cesarops.load_builtin_measure(measure),
                          ROUTE_DEGREE)
    image = cesarops.cesaro_like(mu, functions[fname])
    return image if kind == "integral" else cesarops.derivative(image)


def check_route(measure, fname, kind, z, seed, value):
    expected = cesarops.evaluate(_coefficient_route(measure, fname, kind,
                                                    seed), z)
    if abs(value - expected) <= ROUTE_TOL * max(1.0, abs(expected)):
        return []
    return ["%s at z = %r: %r, coefficient route %r"
            % (kind, z, value, expected)]


def build_route(seed):
    rng, functions = route_functions(seed)
    ops = []
    for measure in ROUTE_MEASURES:
        m = cesarops.load_builtin_measure(measure)
        points = {kind: iter(route_points(rng, len(functions)))
                  for kind in ROUTE_KINDS}
        for fname, f in functions.items():
            for kind in ROUTE_KINDS:
                z = complex(next(points[kind]))
                evaluator = ("cesaro_like_integral_eval" if kind == "integral"
                             else "cesaro_like_derivative_eval")
                ops.append(Op(
                    "%s/%s/%s" % (measure, fname, kind),
                    lambda ev=evaluator, m=m, f=f, z=z:
                    getattr(cesarops, ev)(m, f, z),
                    lambda out, args=(measure, fname, kind, z, seed):
                    check_route(*args, out)))
    return Workload(ops, ops[0].run)


# --------------------------------------------------------------------------
# moments-classify: moment ladders and Carleson verdicts


CLASSIFY_MEASURES = ("lebesgue", "power_half", "power_two", "log_one",
                     "atom09", "mix_atom_power", "hat_table")
CLASSIFY_GRID = ((1.0, 0.0), (1.0, 0.5), (2.0, 0.0), (0.5, 1.0))
CLASSIFY_VARIANTS = ("ii", "iv")
CLASSIFY_N_MAX = 2 ** 14
#: orders at which moments without a vectorised closed form are checked
SAMPLE_ORDERS = (0, 1, 2, 10, 100, 1000, CLASSIFY_N_MAX)


def classify_row(m):
    mu = cesarops.moments(m, CLASSIFY_N_MAX)
    labels = []
    for s, alpha in CLASSIFY_GRID:
        for variant in CLASSIFY_VARIANTS:
            verdict = cesarops.classify_measure(
                m, cesarops.CarlesonParams(s, alpha), n_max=CLASSIFY_N_MAX,
                variant=variant, mu=mu)
            labels.append(dict(verdict.per_criterion))
    return mu.values, labels


@lru_cache(maxsize=None)
def reference_moments(measure):
    """(orders, moments) computed apart from the program."""
    comps = _components(measure)
    try:
        return (np.arange(CLASSIFY_N_MAX + 1),
                closed_form_moments(comps, CLASSIFY_N_MAX))
    except ValueError:
        pass
    orders = np.array(SAMPLE_ORDERS)
    values = np.zeros(orders.size)
    for comp in comps:
        for i, n in enumerate(SAMPLE_ORDERS):
            if comp["kind"] == "table":
                values[i] += ref.table_moment(comp["x"], comp["v"], n)
            elif comp["kind"] == "point":
                values[i] += comp["w"] * comp["t0"] ** n
            else:
                values[i] += ref.powerlog_moment(comp["c"], comp["gamma"],
                                                 comp["beta"], n)
    return orders, values


def check_classify(measure, output):
    values, labels = output
    problems = []
    orders, expected = reference_moments(measure)
    got = values[orders]
    bad = np.abs(got - expected) > MOMENT_ATOL + MOMENT_RTOL * np.abs(
        expected)
    for i in np.flatnonzero(bad)[:3]:
        problems.append("moment %d: %r, reference %r"
                        % (orders[i], got[i], expected[i]))
    comps = _components(measure)
    cells = [(s, alpha, variant) for s, alpha in CLASSIFY_GRID
             for variant in CLASSIFY_VARIANTS]
    for (s, alpha, variant), per_criterion in zip(cells, labels):
        cls = ref.carleson_class(comps, s, alpha)
        for criterion, label in per_criterion.items():
            if not ref.label_allowed(cls, label):
                problems.append("(s, alpha) = (%g, %g) %s %s: %r for a %s "
                                "class" % (s, alpha, variant, criterion,
                                           label, cls))
    if len(labels) != len(cells):
        problems.append("%d verdicts for %d cells" % (len(labels),
                                                      len(cells)))
    return problems


def build_classify(seed):
    ops = []
    for measure in CLASSIFY_MEASURES:
        m = cesarops.load_builtin_measure(measure)
        ops.append(Op(measure, lambda m=m: classify_row(m),
                      lambda out, measure=measure:
                      check_classify(measure, out)))
    return Workload(ops, ops[0].run)


# --------------------------------------------------------------------------
# besov-quad: the p != 2 Besov path of norms


BESOV_PS = (1.5, 3.0)
#: (j, degree): t = 1 - 2**-j
BESOV_LADDER = ((1, 64), (2, 128), (3, 256))


@lru_cache(maxsize=None)
def besov_reference(p, j, degree):
    return ref.besov_dense(ref.test_coefficients(1.0 - 2.0 ** -j, p, degree),
                           p)


def check_besov(p, j, degree, value):
    expected = besov_reference(p, j, degree)
    if _close(value, expected, BESOV_RTOL):
        return []
    return ["besov_norm %.17g, dense reference %.17g" % (value, expected)]


def build_besov(seed):
    ops = []
    for p in BESOV_PS:
        for j, degree in BESOV_LADDER:
            f = cesarops.test_function(1.0 - 2.0 ** -j, p, degree)
            ops.append(Op("p=%g/j=%d/degree=%d" % (p, j, degree),
                          lambda f=f, p=p: cesarops.besov_norm(f, p).value,
                          lambda out, args=(p, j, degree):
                          check_besov(*args, out)))
    return Workload(ops, ops[0].run)


def build(name, seed):
    """The inputs and operations of the workload ``name``."""
    return {"verify-p2": build_verify, "integral-route": build_route,
            "moments-classify": build_classify,
            "besov-quad": build_besov}[name](seed)
