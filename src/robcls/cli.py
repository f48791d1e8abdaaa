"""Command-line front end: classify, verify-dims, regress.

Exit codes separate "mathematically false" from "numerically
indeterminate": 0 success, 2 domain/usage error, 3 indeterminate flags
(residual within a factor 10 of the tolerance threshold), 4 rank
instability in the dimension sweep (a module whose representatives were
cut at a marginal Gram eigenvalue), 1 regression/table mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache

import numpy as np

from . import __version__
from .catalog import ENTRIES, run_expectations
from .chart import distribution_span
from .frames import FrameError, build_robinson, complete_null_frame, robinson_from_span, sample_robinson_over_null_line
from .repdims import all_dim_checks, paper_arrow_delta
from .report import ClassificationReport, decomposition_dict, frame_dict, indeterminate_flags
from .robclass import (
    aligned_residual,
    refined_flags,
    special_residual,
)
from .simclass import _orthonormal_basis, decompose, weyl_type_at_frame, weyl_type_search
from .tensor import Tolerance


def _write(text: str, out: str | None):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_classify(args) -> int:
    if args.metric not in ENTRIES:
        print(f"unknown metric '{args.metric}'; available: {', '.join(sorted(ENTRIES))}", file=sys.stderr)
        return 2
    entry = ENTRIES[args.metric]
    params = dict(entry.default_params)
    try:
        extra = json.loads(args.params or "{}")
    except json.JSONDecodeError:
        extra = None
    if not isinstance(extra, dict):
        print(f"--params must be a JSON object, got {args.params!r}", file=sys.stderr)
        return 2
    params.update(extra)
    if args.dim is not None:
        params["dim"] = args.dim
    try:
        chart = entry.build(params)
    except (TypeError, ValueError) as exc:
        print(f"invalid parameters for '{args.metric}': {exc}", file=sys.stderr)
        return 2
    if not 4 <= chart.dim <= 9:
        print(f"the dimension must be in the supported range 4..9, got {chart.dim}", file=sys.stderr)
        return 2
    try:
        point = np.array([float(v) for v in args.point.split(",")])
    except ValueError:
        print("malformed point", file=sys.stderr)
        return 2
    if not np.isfinite(point).all():
        print(f"point coordinates must be finite, got '{args.point}'", file=sys.stderr)
        return 2
    try:
        tol = Tolerance(args.tol, args.tol)
    except ValueError as exc:
        print(f"invalid --tol: {exc}", file=sys.stderr)
        return 2
    try:
        cp = chart.evaluate(point)
        scale = cp.curvature_scale()
        curvature = {
            "ricci_scalar": cp.ricci_scalar,
            "kretschmann": cp.kretschmann,
            "riemann_norm": scale,
            "weyl_norm": float(np.linalg.norm(cp.weyl.ravel())),
            "phi_norm": float(np.linalg.norm(cp.phi.ravel())),
        }
    except ValueError as exc:  # DomainError, or no Weyl tensor for n <= 3
        print(f"domain error: {exc}", file=sys.stderr)
        return 2
    report = ClassificationReport(
        tool_version=__version__,
        chart=chart.name,
        params={k: v for k, v in params.items() if v is not None},
        point=point.tolist(),
        tolerances={"abs_eps": tol.abs_eps, "rel_eps": tol.rel_eps},
        curvature=curvature,
        seeds={"robinson": args.robinson or ""},
    )
    indeterminate = []
    if args.search:
        try:
            label = weyl_type_search(cp.weyl, cp.g, tol)
        except ValueError as exc:  # FrameError on a metric that is not Lorentzian
            print(f"cannot search: {exc}", file=sys.stderr)
            return 2
        report.weyl_type = label.as_dict()
        frame = complete_null_frame(cp.g, label.direction)
        # the search label is scaled by |C|; the report uses the Riemann scale
        dec = decompose("C", cp.weyl, frame, "sim", tol, scale)
    else:
        lines = entry.null_lines(cp, params)
        if args.k:
            name = {"ingoing": "K", "outgoing": "L", "k": "K", "l": "L"}.get(args.k.lower(), args.k)
            if name in lines:
                kvec = lines[name]
            else:
                try:
                    kvec = np.array([float(v) for v in args.k.split(",")])
                except ValueError:
                    print("malformed k", file=sys.stderr)
                    return 2
                if kvec.shape != (cp.g.shape[0],):
                    print(f"--k must have {cp.g.shape[0]} components, got {kvec.size} in '{args.k}'", file=sys.stderr)
                    return 2
                if not np.isfinite(kvec).all():
                    print(f"--k components must be finite, got '{args.k}'", file=sys.stderr)
                    return 2
        elif "K" in lines:
            kvec = lines["K"]
        else:  # generic: first coordinate null direction from the orthonormal frame
            basis = _orthonormal_basis(cp.g)
            kvec = basis[0] + basis[1]
        try:
            frame = complete_null_frame(cp.g, kvec)
        except FrameError as exc:
            print(f"frame error: {exc}", file=sys.stderr)
            return 2
        label = weyl_type_at_frame(cp.weyl, frame, tol, scale)
        report.weyl_type = label.as_dict()
        dec = label.decomposition
    report.frame = frame_dict(frame)
    report.sim_decomposition = decomposition_dict(dec)
    indeterminate += indeterminate_flags(dec)
    if args.robinson:
        if args.robinson.startswith("random:"):
            seed = args.robinson.split(":", 1)[1]
            if not (seed.isascii() and seed.isdigit()):
                print(f"malformed robinson seed in '{args.robinson}' (SEED must be a nonnegative integer)", file=sys.stderr)
                return 2
            N = sample_robinson_over_null_line(frame, 1, int(seed))[0]
        elif args.robinson == "standard":
            N = build_robinson(frame, "standard")
        else:
            dists = entry.structures(params)
            if args.robinson not in dists:
                print(
                    f"unknown robinson spec '{args.robinson}' (use 'standard', 'random:SEED', or a named structure)",
                    file=sys.stderr,
                )
                return 2
            N = robinson_from_span(cp.g, distribution_span(cp, dists[args.robinson]))
        rdec = refined_flags("C", cp.weyl, N, tol, scale)
        report.robinson = N.serialise()
        report.refined_flags = rdec.summary()
        report.predicates["aligned"] = bool(aligned_residual(cp.weyl, N) * scale <= tol.threshold(scale))
        report.predicates["algebraically_special"] = bool(special_residual(cp.weyl, N) * scale <= tol.threshold(scale))
        indeterminate += indeterminate_flags(rdec)
    report.indeterminate = sorted(set(indeterminate))
    _write(report.to_json(), args.out)
    return 3 if report.indeterminate else 0


def cmd_verify_dims(args) -> int:
    try:
        lo, hi = (int(v) for v in args.n.split("..")) if ".." in args.n else (int(args.n), int(args.n))
    except ValueError:
        lo = hi = None
    if lo is None or not 4 <= lo <= hi:
        print(f"--n must be N or LO..HI with 4 <= LO <= HI, got {args.n!r}", file=sys.stderr)
        return 2
    spaces = ["G", "F", "A", "C"] if args.space == "all" else [args.space]
    levels = ["sim", "rob"] if args.level == "all" else [args.level]
    rows = []
    ok = True
    unstable = False
    for n in range(lo, hi + 1):
        for space in spaces:
            for level in levels:
                for chk in all_dim_checks(space, n, level):
                    rows.append(
                        {
                            "n": n,
                            "level": level,
                            "module": str(chk.key),
                            "formula": chk.formula_dim,
                            "computed": chk.computed_dim,
                            "match": bool(chk.match),
                            "stable": bool(chk.stable),
                        }
                    )
                    ok = ok and chk.match
                    unstable = unstable or not chk.stable
    lines = ["| n | level | module | formula | computed | match |", "|---|-------|--------|---------|----------|-------|"]
    for r in rows:
        lines.append(
            f"| {r['n']} | {r['level']} | {r['module']} | {r['formula']} | {r['computed']} | {'yes' if r['match'] else 'NO'} |"
        )
    text = "\n".join(lines) + "\n"
    if args.json:
        text = json.dumps(rows, indent=2, sort_keys=True) + "\n"
    if args.arrows:
        deltas = {}
        for n in range(lo, hi + 1):
            for space in spaces:
                for level in levels:
                    d = paper_arrow_delta(space, n, level)
                    if d["missing_from_paper"] or d["spurious_in_paper"]:
                        deltas[f"{space}/{level}/n={n}"] = d
        text += "\narrow-diagram deltas (computed vs published figures):\n"
        text += json.dumps(deltas, indent=2, sort_keys=True) + "\n"
    _write(text, args.out)
    if unstable:
        return 4
    return 0 if ok else 1


def cmd_regress(args) -> int:
    names = sorted(ENTRIES)
    if args.only:
        if args.only not in ENTRIES:
            print(f"unknown entry '{args.only}'", file=sys.stderr)
            return 2
        names = [args.only]
    jobs = [(name, extra) for name in names for extra in ENTRIES[name].variants]
    results = [(name, extra, run_expectations(ENTRIES[name], params=extra)) for name, extra in jobs]
    lines = ["# catalog regression", ""]
    failures = 0
    for name, extra, res in results:
        tag = name + ("" if not extra else f" {extra}")
        bad = [r for r in res if r.passed is False]
        skipped = [r for r in res if r.passed is None]
        failures += len(bad)
        lines.append(f"## {tag}: {len(res)} checks, {len(bad)} failed, {len(skipped)} skipped")
        for r in res:
            if r.passed is False or args.verbose:
                resid = "" if r.residual is None else f" residual={r.residual:.3e}"
                lines.append(f"- {r.status} {r.name}: {r.citation}{resid} {r.detail}")
        lines.append("")
    text = "\n".join(lines) + "\n"
    _write(text, args.out)
    return 0 if failures == 0 else 1


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="robcls", description="curvature classification under null-line and Robinson stabilisers")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classify", help="classify a catalog metric at a point")
    c.add_argument("--metric", required=True)
    c.add_argument("--params", default="")
    c.add_argument("--dim", type=int, default=None)
    c.add_argument("--point", required=True, help="comma-separated coordinates")
    c.add_argument(
        "--k",
        default=None,
        help="comma-separated null direction (contravariant), or a named null line of the entry: K/L (ingoing/outgoing); "
        "write a direction whose first component is negative as --k=-1,...",
    )
    c.add_argument("--search", action="store_true", help="search the null sphere for the best-aligned direction")
    c.add_argument(
        "--robinson", default=None, help="'standard', 'random:SEED', or a named structure of the entry (e.g. kk-bubble 'kappa')"
    )
    c.add_argument("--tol", type=float, default=1e-9)
    c.add_argument("--out", default=None)
    c.set_defaults(func=cmd_classify)

    v = sub.add_parser("verify-dims", help="verify the module dimension tables by numerical rank")
    v.add_argument("--n", default="4..9")
    v.add_argument("--space", default="all", choices=["G", "F", "A", "C", "all"])
    v.add_argument("--level", default="all", choices=["sim", "rob", "all"])
    v.add_argument("--json", action="store_true")
    v.add_argument("--arrows", action="store_true", help="also report diagram-arrow deltas")
    v.add_argument("--out", default=None)
    v.set_defaults(func=cmd_verify_dims)

    r = sub.add_parser("regress", help="run the built-in catalog expectations")
    r.add_argument("--only", default=None)
    r.add_argument("--verbose", action="store_true")
    r.add_argument("--out", default=None)
    r.set_defaults(func=cmd_regress)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
