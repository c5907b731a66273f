"""Adaptive Gauss-Legendre panel quadrature.

Panels are bisected until a coarse/fine comparison meets the tolerance in
force, ``tol * max(1, |I0|)`` with ``I0`` the sum of the root segments'
coarse panels: absolute up to magnitude 1 and relative above it, at no
extra integrand call (Gander and Gautschi, BIT 40, 2000).  The per-panel
budget is split proportionally to panel length so the accumulated
estimate stays below the tolerance in force.  The tree is walked level by
level, one integrand call per level of up to 4096 nodes, and folded back
up in tree order, so results are reproducible bit for bit.  Integrands
must be elementwise: given an array of abscissae, they return an array of
the same shape (real or complex).
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


_BLOCK = 4096  # most nodes of one depth refined in one integrand call


def _halves(lo, hi):
    mid = 0.5 * (lo + hi)
    return (lo, mid), (mid, hi)


def integrate_adaptive(f, a, b, *, tol=1e-12, nodes=16, max_depth=44,
                       breakpoints=()):
    """Integrate ``f`` over [a, b] to the tolerance in force (see module).

    Parameters
    ----------
    f : callable
        Elementwise vectorized integrand; may return complex values.
    a, b : float
        Integration limits, a <= b.
    tol : float
        Requested tolerance, absolute up to magnitude 1, relative above.
    nodes : int
        Gauss-Legendre points per panel.
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
    xs, ws = gauss_rule(nodes)
    cuts = [a] + sorted(p for p in set(breakpoints) if a < p < b) + [b]
    length = b - a

    def panel_values(panels):
        # one integrand call for all panels; each panel reduced on its own
        edges = np.array(panels, dtype=float)
        y = f((edges[:, :1] + (edges[:, 1:] - edges[:, :1]) * xs).ravel())
        return [(hi - lo) * np.dot(ws, row)
                for (lo, hi), row in zip(panels, np.reshape(y, (-1, nodes)))]

    def refine(level, coarse, depth, values=None):
        """(value, error) of each node (lo, hi, tol) of ``level``, a run of
        one depth in tree order, given the values of its coarse panels
        and, if taken, of their halves."""
        if values is None:
            values = panel_values([h for lo, hi, _ in level
                                   for h in _halves(lo, hi)])
        leaves, children, child_coarse = [], [], []
        for (lo, hi, tol), c, lval, rval in zip(level, coarse, values[0::2],
                                                values[1::2]):
            fine = lval + rval
            err = abs(fine - c)
            if not np.isfinite(err):
                # splitting cannot repair non-finite samples, so fail fast
                raise QuadratureError(
                    "integrand produced non-finite values on [%g, %g]"
                    % (lo, hi), value=fine, error=float("inf"))
            if err <= tol or depth >= max_depth:
                leaves.append((fine, err))
                continue
            leaves.append(None)
            children += [(clo, chi, 0.5 * tol) for clo, chi in _halves(lo, hi)]
            child_coarse += [lval, rval]
        # wide levels go block by block, so a tree that keeps splitting
        # cannot take memory without bound
        below = iter([r for i in range(0, len(children), _BLOCK)
                      for r in refine(children[i:i + _BLOCK],
                                      child_coarse[i:i + _BLOCK], depth + 1)])
        # fold up as a depth-first recursion adds: left sum plus right sum
        return [leaf if leaf is not None else
                tuple(l + r for l, r in zip(next(below), next(below)))
                for leaf in leaves]

    segs = list(zip(cuts[:-1], cuts[1:]))
    # the root level: each segment's coarse panel and its halves, one call
    values = panel_values(segs + [h for seg in segs for h in _halves(*seg)])
    coarse, values = values[:len(segs)], values[len(segs):]
    tol = tol * max(1.0, abs(sum(coarse)))
    roots = [(lo, hi, tol * (hi - lo) / length) for lo, hi in segs]
    value = 0.0
    err_total = 0.0
    for seg_val, seg_err in refine(roots, coarse, 0, values):
        value = value + seg_val
        err_total += seg_err

    if not np.isfinite(err_total) or err_total > 8.0 * tol:
        raise QuadratureError(
            "quadrature did not converge: achieved %.3e, requested %.3e"
            % (err_total, tol),
            value=value, error=err_total)
    return QuadResult(value, err_total)
