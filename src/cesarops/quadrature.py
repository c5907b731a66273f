"""Adaptive Gauss-Kronrod panel quadrature.

Each panel is sampled once, at the 31 nodes of the Kronrod rule K31.  Its
value is K31 and its error estimate the raw ``|K31 - G15|``, where the
Gauss rule G15 reuses 15 of those nodes (Piessens et al., QUADPACK, 1983;
unlike QUADPACK, the estimate is not rescaled).  Panels are bisected
until the estimate meets the tolerance in force, ``tol * max(1, |I0|)``
with ``I0`` the sum of the root segments' K31 values: absolute up to
magnitude 1 and relative above it, at no extra integrand call (Gander and
Gautschi, BIT 40, 2000).  The per-panel budget is split proportionally to
panel length so the accumulated estimate stays below the tolerance in
force.  The tree is walked level by level, one integrand call per level of
up to 4096 panels, and folded back up in tree order, so results are
reproducible bit for bit.  A call evaluates at most 16384 panels; a tree
that needs more raises ``QuadratureError`` with the best value found.
Integrands must be elementwise: given an array of abscissae, they return
an array of the same shape (real or complex).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = ["QuadratureError", "QuadResult", "gauss_rule", "integrate_adaptive"]


class QuadratureError(ArithmeticError):
    """Quadrature did not reach the requested tolerance.

    Carries the best value found and the achieved error estimate so callers
    can report a diagnostic instead of a bare failure.
    """

    def __init__(self, message, value=None, error=None):
        super().__init__(message)
        self.value = value
        self.error = error


@dataclass(frozen=True)
class QuadResult:
    value: complex
    error: float


@lru_cache(maxsize=None)
def gauss_rule(n: int):
    """Gauss-Legendre nodes and weights transplanted to [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


# The G15/K31 pair on [-1, 1], computed with mpmath at 80 digits and
# rounded to the nearest double: the upper half of the K31 abscissae,
# descending to 0, of which every other one from the second is a G15
# node; their K31 weights; the G15 weights of those Gauss nodes.
_XGK = (0.9980022986933971, 0.9879925180204854, 0.9677390756791391,
        0.937273392400706, 0.8972645323440819, 0.8482065834104272,
        0.790418501442466, 0.7244177313601701, 0.650996741297417,
        0.5709721726085388, 0.4850818636402397, 0.3941513470775634,
        0.29918000715316884, 0.20119409399743451, 0.1011420669187175, 0.0)
_WGK = (0.005377479872923349, 0.015007947329316122, 0.02546084732671532,
        0.03534636079137585, 0.04458975132476488, 0.05348152469092809,
        0.06200956780067064, 0.06985412131872826, 0.07684968075772038,
        0.08308050282313302, 0.08856444305621176, 0.09312659817082532,
        0.09664272698362368, 0.09917359872179196, 0.10076984552387559,
        0.10133000701479154)
_WG = (0.03075324199611727, 0.07036604748810812, 0.10715922046717194,
       0.13957067792615432, 0.16626920581699392, 0.1861610000155622,
       0.19843148532711158, 0.2025782419255613)
# ascending: the 31 nodes; their K31 weights, and the G15 weights of the
# nodes at odd positions, 0 at the others
_X = np.array([-x for x in _XGK[:-1]] + list(_XGK[::-1]))
_W = np.array([_WGK[:-1] + _WGK[::-1], np.zeros(_X.size)])
_W[1, 1::2] = _WG[:-1] + _WG[::-1]

_BLOCK = 4096  # most panels of one depth in one integrand call
_BUDGET = 16384  # most panels one call evaluates, root panels included


def _kronrod(f, level):
    """K31 values and ``|K31 - G15|`` estimates of the panels (lo, hi, ...)
    of ``level``, from one integrand call; each panel reduced on its own."""
    mid, half = np.array([(0.5 * (p[0] + p[1]), 0.5 * (p[1] - p[0]))
                          for p in level]).T
    y = f((mid[:, None] + half[:, None] * _X).ravel())
    kg = half[:, None] * (y.reshape(-1, 1, _X.size) * _W).sum(axis=2)
    return kg[:, 0], np.abs(kg[:, 0] - kg[:, 1])


def integrate_adaptive(f, a, b, *, tol=1e-12, max_depth=44, breakpoints=()):
    """Integrate ``f`` over [a, b] to the tolerance in force (see module).

    Parameters
    ----------
    f : callable
        Elementwise vectorized integrand; may return complex values.
    a, b : float
        Integration limits, a <= b.
    tol : float
        Requested tolerance, absolute up to magnitude 1, relative above.
    max_depth : int
        Bisection limit; exceeding it on a panel whose error estimate still
        matters raises :class:`QuadratureError`.
    breakpoints : iterable of float
        Interior points where the integrand changes character (grid nodes,
        atom locations); panels never straddle them.

    Returns
    -------
    QuadResult
        Value and accumulated conservative error estimate.
    """
    if b < a:
        raise ValueError("integrate_adaptive requires a <= b")
    if b == a:
        return QuadResult(0.0, 0.0)
    cuts = [a] + sorted(p for p in set(breakpoints) if a < p < b) + [b]
    length = b - a
    spent = len(cuts) - 1  # panels evaluated; inf once the budget is out

    def refine(level, depth, values=None):
        """(value, error) of each panel (lo, hi, tol) of ``level``, a run of
        one depth in tree order, refined until it meets its ``tol``."""
        nonlocal spent
        val, err = _kronrod(f, level) if values is None else values
        if not np.isfinite(err).all():
            # splitting cannot repair non-finite samples, so fail fast
            i = np.argmin(np.isfinite(err))
            raise QuadratureError(
                "integrand produced non-finite values on [%g, %g]"
                % level[i][:2], value=val[i], error=float("inf"))
        leaves, children = [], []
        for (lo, hi, tol), v, e in zip(level, val, err):
            if e <= tol or depth >= max_depth:
                leaves.append((v, e))
                continue
            leaves.append(None)
            mid = 0.5 * (lo + hi)
            children += [(lo, mid, 0.5 * tol), (mid, hi, 0.5 * tol)]
        if spent + len(children) > _BUDGET:
            # out of panels: keep these as they are, and raise at the end
            spent, leaves, children = np.inf, list(zip(val, err)), []
        spent += len(children)
        # wide levels go block by block, so a tree that keeps splitting
        # cannot take memory without bound
        below = iter([r for i in range(0, len(children), _BLOCK)
                      for r in refine(children[i:i + _BLOCK], depth + 1)])
        # fold up as a depth-first recursion adds: left sum plus right sum
        return [leaf if leaf is not None else
                tuple(l + r for l, r in zip(next(below), next(below)))
                for leaf in leaves]

    # the root level: each segment's panel, whose values scale the tolerance
    segs = list(zip(cuts[:-1], cuts[1:]))
    values = _kronrod(f, segs)
    tol = tol * max(1.0, abs(sum(values[0])))
    roots = [(lo, hi, tol * (hi - lo) / length) for lo, hi in segs]
    value = 0.0
    err_total = 0.0
    for seg_val, seg_err in refine(roots, 0, values):
        value = value + seg_val
        err_total += seg_err

    if spent > _BUDGET:
        raise QuadratureError(
            "quadrature needs more than %d panels: achieved %.3e, "
            "requested %.3e" % (_BUDGET, err_total, tol),
            value=value, error=err_total)
    if not np.isfinite(err_total) or err_total > 8.0 * tol:
        raise QuadratureError(
            "quadrature did not converge: achieved %.3e, requested %.3e"
            % (err_total, tol),
            value=value, error=err_total)
    return QuadResult(value, err_total)
