"""Command-line front end: classify, verify-dims, regress.

Exit codes separate "mathematically false" from "numerically
indeterminate": 0 success, 2 domain/usage error, 3 indeterminate flags
(residual within a factor 10 of the tolerance threshold), 4 rank
instability in the dimension sweep (a module whose parameters were cut at
a marginal Gram eigenvalue), 1 regression/table mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache

import numpy as np

from . import __version__
from .catalog import ENTRIES, run_expectations
from .frames import FrameError, build_robinson, complete_null_frame, orthonormal_basis, sample_robinson_over_null_line
from .modules import validate_sim_table
from .repdims import all_dim_checks, paper_arrow_delta
from .report import ClassificationReport, decomposition_dict, frame_dict, indeterminate_flags
from .robclass import aligned_from_flags, refined_flags, special_from_flags
from .simclass import weyl_type_at_frame, weyl_type_search
from .tensor import Tolerance


class UsageError(Exception):
    """A domain or usage error: `main` prints the message on one line and exits 2."""


def _write(text: str, out: str | None):
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:  # a missing directory, a directory, no permission
            raise UsageError(f"cannot write --out '{out}': {exc.strerror or exc}") from None
    else:
        sys.stdout.write(text)


def _null_direction(spec: str | None, entry, cp) -> np.ndarray:
    """The --k direction: a named null line of the entry, comma-separated components, or the default."""
    g, lines = cp.g, entry.null_lines(cp)
    if not spec:
        if "K" in lines:
            return lines["K"]
        basis = orthonormal_basis(g)  # generic: first coordinate null direction of the orthonormal frame
        return basis[0] + basis[1]
    name = {"ingoing": "K", "outgoing": "L", "k": "K", "l": "L"}.get(spec.lower(), spec)
    if name in lines:
        return lines[name]
    try:
        kvec = np.array([float(v) for v in spec.split(",")])
    except ValueError:
        named = f"its null lines are {', '.join(lines)}" if lines else "it names no null line"
        raise UsageError(f"--k '{spec}' is neither comma-separated components nor a named null line of metric '{entry.name}' ({named})") from None
    if kvec.shape != (g.shape[0],):
        raise UsageError(f"--k must have {g.shape[0]} components, got {kvec.size} in '{spec}'")
    if not np.isfinite(kvec).all():
        raise UsageError(f"--k components must be finite, got '{spec}'")
    return kvec


def _robinson_structure(spec: str, frame, entry, cp):
    """The --robinson structure: 'standard', 'random:SEED' or a named structure of the entry."""
    if spec.startswith("random:"):
        seed = spec.split(":", 1)[1]
        if not (seed.isascii() and seed.isdigit()):
            raise UsageError(f"malformed robinson seed in '{spec}' (SEED must be a nonnegative integer)")
        return sample_robinson_over_null_line(frame, 1, int(seed))[0]
    if spec == "standard":
        return build_robinson(frame)
    names = entry.registry(cp.chart.params).structures
    if spec not in names:
        named = f"its structures are {', '.join(names)}" if names else "it names no structure"
        raise UsageError(f"unknown robinson spec '{spec}' for metric '{entry.name}' (use 'standard', 'random:SEED', or a named structure; {named})")
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            return entry.structure(cp, spec)
    except (FloatingPointError, ValueError) as exc:  # taub-nut's kappa and lambda need F > 0; a degenerate CKY spectrum or a failed frame is a FrameError
        raise UsageError(f"domain error: {exc} in structure '{spec}' at {cp.point.tolist()}") from None


def cmd_classify(args) -> int:
    if args.metric not in ENTRIES:
        raise UsageError(f"unknown metric '{args.metric}'; available: {', '.join(sorted(ENTRIES))}")
    entry = ENTRIES[args.metric]
    try:
        extra = json.loads(args.params or "{}")
    except json.JSONDecodeError:
        extra = None
    if not isinstance(extra, dict):
        raise UsageError(f"--params must be a JSON object, got {args.params!r}")
    if args.dim is not None:
        extra["dim"] = args.dim
    try:
        chart = entry.chart(extra)
    except ValueError as exc:
        raise UsageError(f"invalid parameters for '{args.metric}': {exc}") from None
    if sum(s < 0 for s in chart.signature) != 1:  # no null directions to classify along
        raise UsageError(f"metric '{args.metric}' is not Lorentzian: signature {chart.signature} has no single timelike direction")
    try:
        point = np.array([float(v) for v in args.point.split(",")])
    except ValueError:
        raise UsageError("malformed point") from None
    if not np.isfinite(point).all():
        raise UsageError(f"point coordinates must be finite, got '{args.point}'")
    try:
        tol = Tolerance(args.tol, args.tol)
    except ValueError as exc:
        raise UsageError(f"invalid --tol: {exc}") from None
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
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
        raise UsageError(f"domain error: {exc}") from None
    except (FloatingPointError, OverflowError) as exc:  # a division by zero, an overflow or an invalid value in the metric or its curvature
        raise UsageError(f"domain error: {exc} at {point.tolist()}") from None
    report = ClassificationReport(
        tool_version=__version__,
        chart=chart.name,
        params={k: v for k, v in chart.params.items() if v is not None},
        point=point.tolist(),
        tolerances={"abs_eps": tol.abs_eps, "rel_eps": tol.rel_eps},
        curvature=curvature,
        seeds={"robinson": args.robinson or ""},
    )
    # --search, --k, a named line or the default only choose the direction
    if args.search:
        try:
            label = weyl_type_search(cp.weyl, cp.g, tol, scale=scale)
        except ValueError as exc:  # FrameError on a metric that is not Lorentzian
            raise UsageError(f"cannot search: {exc}") from None
    else:
        kvec = _null_direction(args.k, entry, cp)
        try:
            frame = complete_null_frame(cp.g, kvec)
        except FrameError as exc:
            raise UsageError(f"frame error: {exc}") from None
        label = weyl_type_at_frame(cp.weyl, frame, tol, scale)
    dec = label.decomposition
    report.weyl_type = label.as_dict()
    report.frame = frame_dict(dec.frame)
    report.sim_decomposition = decomposition_dict(dec)
    indeterminate = indeterminate_flags(dec)
    if args.robinson:
        N = _robinson_structure(args.robinson, dec.frame, entry, cp)
        rdec = refined_flags("C", cp.weyl, N, tol, scale)
        report.robinson = N.serialise()
        report.refined_flags = rdec.summary()
        report.predicates["aligned"] = bool(aligned_from_flags(rdec))
        report.predicates["algebraically_special"] = bool(special_from_flags(rdec))
        indeterminate += indeterminate_flags(rdec)
    report.indeterminate = sorted(set(indeterminate))
    _write(report.to_json(), args.out)
    return 3 if report.indeterminate else 0


def cmd_verify_dims(args) -> int:
    try:
        lo, hi = (int(v) for v in args.n.split("..")) if ".." in args.n else (int(args.n), int(args.n))
    except ValueError:
        lo = hi = None
    if lo is None or not 4 <= lo <= hi <= 9:
        raise UsageError(f"--n must be N or LO..HI with 4 <= LO <= HI <= 9, got {args.n!r}")
    spaces = ["G", "F", "A", "C"] if args.space == "all" else [args.space]
    levels = ["sim", "rob"] if args.level == "all" else [args.level]
    rows = []
    ok = True
    unstable = False
    for n in range(lo, hi + 1):
        for space in spaces:
            validate_sim_table(space, n)
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
            raise UsageError(f"unknown entry '{args.only}'")
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
    c.add_argument("--params", default="", help="JSON object of the entry's declared parameters (see the parameter table in README.md)")
    c.add_argument("--dim", type=int, default=None, help="sets the parameter dim")
    c.add_argument("--point", required=True, help="comma-separated coordinates")
    c.add_argument(
        "--k",
        default=None,
        help="comma-separated null direction (contravariant), or a named null line of the entry: K/L (ingoing/outgoing); "
        "write a direction whose first component is negative as --k=-1,...",
    )
    c.add_argument("--search", action="store_true", help="search the null sphere for the best-aligned direction")
    c.add_argument(
        "--robinson", default=None, help="'standard', 'random:SEED', or a named structure of the entry (e.g. kk-bubble kappa, "
        "myers-perry eigen0, robinson-trautman product; an unknown name lists the entry's)"
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
    try:
        return args.func(args)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
