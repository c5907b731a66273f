"""Command-line front end.

Five subcommands expose the library over file-based inputs:

* ``moments``  -- moment ladder of a measure, as CSV;
* ``classify`` -- three-way Carleson verdict, as JSON (or the raw
  ladders as CSV when the output path ends in ``.csv``);
* ``apply``    -- coefficients of the transformed series, as CSV;
* ``norm``     -- one norm of one function, as JSON;
* ``verify``   -- a full experiment report, as JSON.

Measures and functions are given as JSON file paths or builtin names
(see :mod:`cesarops.catalog`).  Exit codes: 0 for success (inconclusive
classifications included), 2 for input errors, 3 for numerical
failures.  Floats are printed in Python's shortest round-trip form and
writes are atomic, so identical inputs reproduce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile

import numpy as np

from cesarops.carleson import CarlesonParams, classify_measure
from cesarops.catalog import (
    builtin_function_names,
    builtin_measure_names,
    catalog_measures,
    resolve_function,
    resolve_measure,
)
from cesarops.measure import moments
from cesarops.norms import (
    besov_norm,
    bloch_norm,
    growth_ratio,
    mean_lipschitz_norm,
)
from cesarops.series import PowerSeries, cesaro_like
from cesarops.verify import (
    ExperimentConfig,
    boundedness_experiment,
    compactness_experiment,
    proposition21_experiment,
)

#: MemoryError: an input too large to allocate, such as a huge builtin degree
_INPUT_ERRORS = (ValueError, KeyError, TypeError, OSError, MemoryError)


def _fmt(x) -> str:
    if isinstance(x, float):
        # json.dumps only for NaN and the infinities: it is slow per cell
        return float.__repr__(x) if math.isfinite(x) else json.dumps(x)
    return str(x)


def _dump_json(obj) -> str:
    # numpy floats subclass float; numpy ints and bools go through .item()
    return json.dumps(obj, indent=2, default=lambda o: o.item()) + "\n"


def _write_out(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, out)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv(rows, header) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(cell) for cell in row))
    return "\n".join(lines) + "\n"


def _cmd_moments(args) -> str:
    m = resolve_measure(args.measure)
    mu = moments(m, args.n_max, abs_tol=args.tol)
    rows = [(n, mu.values[n], mu.abs_tolerance) for n in range(mu.n_max + 1)]
    return _csv(rows, ("n", "mu_n", "tol"))


def _verdict_to_dict(verdict) -> dict:
    crits = [{
        "criterion": crit.criterion,
        "label": crit.label,
        "grid": list(crit.grid),
        "values": list(crit.values),
        "slope": crit.slope,
        "peak": float(np.max(crit.values)) if crit.values else math.nan,
        "terminal": crit.values[-1] if crit.values else math.nan,
    } for crit in verdict.criteria]
    return {"s": verdict.params.s, "alpha": verdict.params.alpha,
            **verdict.to_dict(), "criteria": crits}


def _cmd_classify(args) -> str:
    m = resolve_measure(args.measure)
    params = CarlesonParams(args.s, args.alpha)
    verdict = classify_measure(m, params, tail_depth=args.ladder_depth,
                               n_max=args.n_max)
    if args.out is not None and args.out.endswith(".csv"):
        # each criterion's ladder, then its integral probes' ladders
        rows = [(crit.criterion, i, g, v)
                for top in verdict.criteria
                for crit in (top, *top.subresults)
                for i, (g, v) in enumerate(zip(crit.grid, crit.values))]
        return _csv(rows, ("criterion", "index", "grid", "value"))
    return _dump_json(_verdict_to_dict(verdict))


def _cmd_apply(args) -> str:
    m = resolve_measure(args.measure)
    f = resolve_function(args.function)
    n_max = max(args.n_max, f.degree)
    mu = moments(m, n_max)
    result = cesaro_like(mu, PowerSeries(np.pad(f.coeffs,
                                                (0, n_max - f.degree))))
    rows = [(n, c.real, c.imag) for n, c in enumerate(result.coeffs)]
    return _csv(rows, ("n", "re", "im"))


def _cmd_norm(args) -> str:
    f = resolve_function(args.function)
    kind = args.kind
    payload = {"kind": kind}
    if kind != "bloch":
        payload["p"] = args.p
    if kind == "mean-lipschitz":
        payload["alpha"] = args.alpha
    if kind == "growth":
        payload["value"] = growth_ratio(f, args.p)
        return _dump_json(payload)
    if kind == "bloch":
        est = bloch_norm(f)
    elif kind == "besov":
        est = besov_norm(f, args.p)
    else:
        est = mean_lipschitz_norm(f, args.p, args.alpha)
    payload.update(value=est.value, converged=est.converged,
                   refinements=len(est.refinements), grid=est.grid_spec)
    return _dump_json(payload)


def _cmd_verify(args) -> str:
    if args.theorem == "proposition21":
        grid = ((1.0, 0.0), (1.0, 0.5), (2.0, 0.0), (0.5, 1.0))
        matrix = proposition21_experiment(catalog_measures(), grid)
        payload = {
            "theorem": args.theorem,
            "entries": [{
                "measure": e.measure, "s": e.s, "alpha": e.alpha,
                "tail": e.tail_label, "moments": e.moments_label,
                "conclusive": e.conclusive, "agree": e.agree,
            } for e in matrix.entries],
            "n_conclusive": matrix.n_conclusive,
            "n_agree": matrix.n_agree,
            "agreement_rate": matrix.agreement_rate,
        }
        return _dump_json(payload)
    m = resolve_measure(args.measure)
    config = ExperimentConfig(ladder_depth=args.ladder_depth)
    if args.theorem == "boundedness":
        report = boundedness_experiment(m, args.p, args.s, config)
    else:
        report = compactness_experiment(m, args.p, args.s, config)
    return _dump_json(report.to_dict())


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cesarops",
        description="Integration operators induced by radial measures: "
                    "moments, Carleson-type classification, norms, and "
                    "verification experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out", default=None,
                       help="output file (atomic write); default stdout")

    p = sub.add_parser("moments", help="moment ladder of a measure (CSV)")
    p.add_argument("--measure", required=True,
                   help="measure JSON path or builtin name (%s)"
                        % ", ".join(builtin_measure_names()))
    p.add_argument("--n-max", type=int, default=256)
    p.add_argument("--tol", type=float, default=1e-12,
                   help="absolute tolerance per moment (default 1e-12)")
    add_common(p)

    p = sub.add_parser("classify",
                       help="three-way Carleson classification (JSON; "
                            "raw ladders as CSV if --out ends in .csv)")
    p.add_argument("--measure", required=True)
    p.add_argument("--s", type=float, default=1.0)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--ladder-depth", type=int, default=14)
    p.add_argument("--n-max", type=int, default=2 ** 14)
    add_common(p)

    p = sub.add_parser("apply",
                       help="coefficients of the transformed series (CSV)")
    p.add_argument("--measure", required=True)
    p.add_argument("--function", required=True,
                   help="function JSON path or builtin name (%s)"
                        % ", ".join(builtin_function_names()))
    p.add_argument("--n-max", type=int, default=256,
                   help="pad the function with zero coefficients up to "
                        "this degree (never truncates)")
    add_common(p)

    p = sub.add_parser("norm", help="one norm of one function (JSON)")
    p.add_argument("--function", required=True)
    p.add_argument("--kind", choices=("bloch", "besov", "mean-lipschitz",
                                      "growth"), default="bloch")
    p.add_argument("--p", type=float, default=2.0, help="unused by bloch")
    p.add_argument("--alpha", type=float, default=0.5,
                   help="read only by mean-lipschitz")
    add_common(p)

    p = sub.add_parser("verify", help="experiment report (JSON)")
    p.add_argument("--theorem", choices=("boundedness", "compactness",
                                         "proposition21"),
                   default="boundedness",
                   help="proposition21 reads none of --measure, --p, --s "
                        "and --ladder-depth")
    p.add_argument("--measure", default="lebesgue")
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--s", type=float, default=2.0)
    p.add_argument("--ladder-depth", type=int, default=12)
    add_common(p)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "moments": _cmd_moments,
        "classify": _cmd_classify,
        "apply": _cmd_apply,
        "norm": _cmd_norm,
        "verify": _cmd_verify,
    }
    try:
        text = handlers[args.command](args)
    except ArithmeticError as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return 3
    except _INPUT_ERRORS as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    try:
        _write_out(text, args.out)
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
