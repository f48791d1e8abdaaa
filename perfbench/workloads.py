"""Request lists, seeded plans and golden verdicts for the robcls benchmark.

Every operation the benchmark runs is a `robcls.cli.main(argv)` call. This
module fixes which argv lists make up each workload, how the workload seed
orders them and picks their Robinson seeds, and how a CLI output is reduced to
the verdict that is compared against `golden.json`.

Stdlib only: the parent process of a run imports it without numpy.
"""

from __future__ import annotations

import json
import math
import random
import re
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden.json"

# Robinson seeds a run may hand to `--robinson random:<s>`. `make_golden.py`
# checks every classify verdict against each of them, so no request of any run
# can land on a structure whose verdict was never recorded.
ROBINSON_POOL = (1, 7, 13, 42, 101, 257, 1009, 2718, 3141, 4099, 7919, 11003, 16411, 27183, 31337, 65537)

# Lorentzian catalog entries with their default parameters and sample points,
# as `robcls.catalog.ENTRIES[name].sample_points(default_params)` returns them
# at the seed program. Iwasawa is Riemannian (no null frame) and is left to
# regress-cold. Written out so that the parent needs no robcls import;
# `selftest.py` checks the list against the catalog.
CATALOG_POINTS = {
    "kk-bubble": [(0.0, 2.5, 0.3, 0.2, -0.4), (0.0, 3.0, 0.3, 0.2, -0.4), (0.0, 5.0, 0.3, 0.2, -0.4)],
    "minkowski": [(0.0, 0.0, 0.0, 0.0, 0.0, 0.0), (0.0, 0.3, 0.6, 0.8999999999999999, 1.2, 1.5)],
    "myers-perry": [(0.0, 2.2, 0.5, 1.2, -0.6), (0.3, -1.5, 1.8, 0.4, 1.1)],
    "pp-wave": [(0.2, 0.0, 0.3, -0.4, 0.5, 0.1), (-0.4, 1.0, 0.8, 0.2, -0.3, 0.4)],
    "robinson-trautman": [(0.0, 3.0, 0.3, -0.2, 0.4, 0.1), (0.7, 4.0, -0.5, 0.3, 0.2, -0.3)],
    "schwarzschild": [(0.0, 3.0, 1.0, 0.5, 0.2), (0.0, 2.0, -1.5, 1.0, 0.6), (0.5, -2.5, 2.0, 0.8, -0.5)],
    "taub-nut": [(0.0, 2.0, 0.3, -0.2, 0.5, 0.1), (0.4, 3.0, -0.6, 0.2, 0.1, 0.4)],
    "walker": [(0.1, 0.7, 0.4, -0.2, 0.3, 0.5), (0.5, -0.3, 0.2, 0.6, -0.4, 0.1)],
}
SCHWARZSCHILD_R3_DIMS = (4, 6, 7)

WORKLOADS = ("classify-warm", "classify-search", "verify-dims-cold", "regress-cold")
WARM = {"classify-warm", "classify-search"}
# dimensions whose C tables the warm workloads build during set-up
WARM_TABLE_DIMS = (4, 5, 6, 7)

VERIFY_ARGV = ["verify-dims", "--n", "4..9", "--arrows"]
VERIFY_ARGV_QUICK = ["verify-dims", "--n", "4..5", "--arrows"]
REGRESS_ARGV = ["regress", "--verbose"]
REGRESS_ARGV_QUICK = ["regress", "--verbose", "--only", "minkowski"]

# relative tolerance for curvature scalars and norms, against the Riemann norm
CURVATURE_RTOL = 1e-9


def _fmt_point(pt) -> str:
    return ",".join(repr(float(v)) for v in pt)


# classify-search runs one request per (Weyl type, dimension) pair of the
# list: G at n = 5, N and III at n = 6, II at n = 4 and n = 7. One search pass
# over all 21 requests takes about 27 s on 2 cores, longer than a whole run;
# these five take about 7 s, so each run gets several passes to take medians
# over.
SEARCH_IDS = ("kk-bubble#0", "pp-wave#0", "walker#0", "schwarzschild-r3-n4", "schwarzschild-r3-n7")


def classify_requests(search: bool) -> list[dict]:
    """The fixed request list of a classify workload.

    classify-warm: every Lorentzian catalog entry at each sample point (18)
    plus Schwarzschild at r = 3 for n = 4, 6, 7 -- 21 requests.
    classify-search: the SEARCH_IDS subset of those.
    """
    reqs = []
    for name, pts in CATALOG_POINTS.items():
        for i, pt in enumerate(pts):
            reqs.append({"id": f"{name}#{i}", "metric": name, "dim": None, "point": _fmt_point(pt)})
    for n in SCHWARZSCHILD_R3_DIMS:
        pt = (0.0, 3.0) + (0.0,) * (n - 2)
        reqs.append({"id": f"schwarzschild-r3-n{n}", "metric": "schwarzschild", "dim": n, "point": _fmt_point(pt)})
    return [r for r in reqs if r["id"] in SEARCH_IDS] if search else reqs


def classify_argv(req: dict, robinson_seed: int, search: bool) -> list[str]:
    argv = ["classify", "--metric", req["metric"], f"--point={req['point']}", "--robinson", f"random:{robinson_seed}"]
    if req["dim"] is not None:
        argv += ["--dim", str(req["dim"])]
    if search:
        argv.append("--search")
    return argv


def pass_plan(workload: str, seed: int, passes: int, quick: bool = False) -> list[list[dict]]:
    """`passes` seeded passes over the workload's fixed operation list.

    Each pass holds every operation once. The seed fixes the order within each
    pass and each request's Robinson seed (drawn from ROBINSON_POOL); it never
    changes which operations run.
    """
    rng = random.Random(seed)
    if workload in WARM:
        search = workload == "classify-search"
        reqs = classify_requests(search)
        if quick:
            reqs = reqs[:2]
        plan = []
        for _ in range(passes):
            order = rng.sample(reqs, len(reqs))
            plan.append(
                [{"id": r["id"], "argv": classify_argv(r, rng.choice(ROBINSON_POOL), search)} for r in order]
            )
        return plan
    if workload == "verify-dims-cold":
        argv = VERIFY_ARGV_QUICK if quick else VERIFY_ARGV
        return [[{"id": "verify-dims", "argv": list(argv)}] for _ in range(passes)]
    if workload == "regress-cold":
        argv = REGRESS_ARGV_QUICK if quick else REGRESS_ARGV
        return [[{"id": "regress", "argv": list(argv)}] for _ in range(passes)]
    raise ValueError(f"unknown workload '{workload}'")


# --------------------------------------------------------------------------
# verdicts: what of a CLI output is compared against the golden data
# --------------------------------------------------------------------------


def classify_verdict(code: int, text: str) -> dict:
    r = json.loads(text)
    return {
        "exit_code": code,
        "type": r["weyl_type"]["type"],
        "subtype_flags": r["weyl_type"]["subtype_flags"],
        "sim_flags": {k: v["vanishing"] for k, v in r["sim_decomposition"]["modules"].items()},
        "refined_flags": {k: v["vanishing"] for k, v in r["refined_flags"].items()},
        "predicates": r["predicates"],
        "indeterminate": r["indeterminate"],
        "curvature": r["curvature"],
        # read for the per-layer accuracy guard, never compared
        "refined_floor": (r["weyl_type"].get("search") or {}).get("refined_floor"),
    }


_ROW = re.compile(r"^\| (\d+) \| (\w+) \| (\S+) \| (\d+) \| (\d+) \| (yes|NO) \|$")
_DELTA_HEADER = "arrow-diagram deltas (computed vs published figures):"


def verify_dims_verdict(code: int, text: str) -> dict:
    head, _, tail = text.partition(_DELTA_HEADER)
    rows = [list(m.groups()) for m in map(_ROW.match, head.splitlines()) if m]
    return {"exit_code": code, "rows": rows, "arrow_deltas": json.loads(tail) if tail.strip() else None}


_JOB = re.compile(r"^## (.+): (\d+) checks, (\d+) failed, (\d+) skipped$")
_CHECK = re.compile(r"^- (PASS|FAIL|SKIP) (.*?): ")


def regress_verdict(code: int, text: str) -> dict:
    jobs: dict[str, list] = {}
    current = None
    for line in text.splitlines():
        m = _JOB.match(line)
        if m:
            current = jobs.setdefault(m.group(1), [])
            continue
        m = _CHECK.match(line)
        if m and current is not None:
            current.append([m.group(2), m.group(1)])
    return {"exit_code": code, "jobs": jobs}


def verdict_of(argv: list[str], code: int, text: str) -> dict:
    if code not in (0, 3):
        return {"exit_code": code}
    if argv[0] == "classify":
        return classify_verdict(code, text)
    if argv[0] == "verify-dims":
        return verify_dims_verdict(code, text)
    return regress_verdict(code, text)


def golden_key(workload: str, op_id: str) -> str:
    if workload in WARM:
        return f"{workload}/{op_id}"
    return workload


def load_golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def _close(a: float, b: float, scale: float) -> bool:
    return abs(a - b) <= CURVATURE_RTOL * max(abs(a), abs(b), scale)


def mismatches(argv: list[str], got: dict, want: dict) -> list[str]:
    """Fields in which a verdict disagrees with its golden verdict (empty: agrees)."""
    if got.get("exit_code") not in (0, 3):
        return [f"exit code {got.get('exit_code')}"]
    out = []
    if argv[0] == "classify":
        for field in ("exit_code", "type", "subtype_flags", "sim_flags", "refined_flags", "predicates", "indeterminate"):
            if got[field] != want[field]:
                out.append(field)
        scale = abs(want["curvature"]["riemann_norm"])
        for name, value in want["curvature"].items():
            if not _close(got["curvature"].get(name, math.nan), value, scale):
                out.append(f"curvature.{name}")
        return out
    if argv[0] == "verify-dims":
        lo, hi = (int(v) for v in argv[argv.index("--n") + 1].split(".."))
        rows = [r for r in want["rows"] if lo <= int(r[0]) <= hi]
        deltas = {k: v for k, v in want["arrow_deltas"].items() if lo <= int(k.rsplit("=", 1)[1]) <= hi}
        if got["exit_code"] != want["exit_code"]:
            out.append("exit_code")
        if got["rows"] != rows:
            out.append("rows")
        if got["arrow_deltas"] != deltas:
            out.append("arrow_deltas")
        return out
    jobs = want["jobs"]
    if "--only" in argv:
        only = argv[argv.index("--only") + 1]
        jobs = {k: v for k, v in jobs.items() if k == only or k.startswith(only + " ")}
    if got["exit_code"] != want["exit_code"]:
        out.append("exit_code")
    for job in sorted(set(jobs) | set(got["jobs"])):
        if got["jobs"].get(job) != jobs.get(job):
            out.append(f"jobs.{job}")
    return out
