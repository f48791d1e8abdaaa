"""robcls benchmark: one workload, one run, every output checked.

    python3 perfbench/run.py --workload classify-warm --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30     # every workload in turn

Runs from the root of a source checkout (it imports `src/robcls`, nothing is
installed). One client drives the program in a closed loop: every operation
is a `robcls.cli.main(argv)` call in a fresh child interpreter
(`perfbench/child.py`), and at most one child is alive at a time. Children run
with the program's defaults: ROBCLS_THREADS and the BLAS thread variables are
removed from their environment.

A run first starts three set-up-only children, then measuring children until
`--seconds` would be overrun (always at least one unit of work: passes over
the request list for the classify workloads, at least one whole tail block of
five passes for classify-warm; one CLI invocation in a fresh interpreter for
the cold ones). `--trace 1` instead alternates untraced and
traced children of one unit each and reports per-layer metrics.

The last line of standard output is one JSON object
`{"correct", "attempted", "failed", "metrics"}`; the lines before it repeat
every metric with its unit. The full record (environment, calibration loop
before and after, every sample) goes to `perfbench/results/`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SRC = REPO / "src"
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))

import workloads as W  # noqa: E402

CHILD_TIMEOUT_S = 170.0
SETUP_ONLY_CHILDREN = 3
MAX_PASSES = 50
# latency_tail_ms is taken over blocks of this many passes, so that the sample
# count behind it, and with it the request the tail falls on, does not depend
# on how many passes fit in a run. 5 passes of 21 requests are 105 samples,
# the fewest that reach p90. Other workloads: a block is one pass or one cold
# invocation.
TAIL_BLOCK_PASSES = {"classify-warm": 5}
# End-to-end metrics in the result line. latency_p50_ms is printed and recorded
# but not gated: on the 2-core reference machine its ten-seed quartile spread
# on classify-warm was 0.22 and 0.30 of the median, at or above the largest
# bound a metric may have. wall_s carries the same path at half that spread.
END_TO_END = ("latency_tail_ms", "wall_s", "setup_s", "peak_rss_mb")
UNSET_ENV = ("ROBCLS_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


class ChildFailed(RuntimeError):
    pass


def calibration_loop() -> float:
    """A fixed pure-Python loop; its time shows machine drift, never used to normalise."""
    t0 = perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc + i * i) % 1_000_003
    return perf_counter() - t0


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in UNSET_ENV}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(cfg: dict, tag: str) -> tuple[float, dict]:
    """Start one child, wait for it; returns (set-up seconds, its result)."""
    RESULTS.mkdir(exist_ok=True)
    cfg_path = RESULTS / f"{tag}.cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    with open(RESULTS / f"{tag}.stderr", "w") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(cfg_path)],
            stdout=subprocess.PIPE, stderr=err, text=True, env=child_env(), cwd=str(REPO),
        )
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            setup_s = perf_counter() - t0
            rest = proc.stdout.read()
            proc.stdout.close()
            proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if ready.strip() != "READY" or proc.returncode != 0 or not rest.strip():
        raise ChildFailed(f"child {tag} exited {proc.returncode}; see {err.name}")
    cfg_path.unlink()
    if not os.path.getsize(err.name):
        os.unlink(err.name)
    return setup_s, json.loads(rest.strip().splitlines()[-1])


class Run:
    def __init__(self, args):
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = float(args.seconds)
        self.trace = bool(args.trace)
        self.quick = args.quick
        self.golden = W.load_golden()
        self.warm = args.workload in W.WARM
        self.setups: list[float] = []
        self.children: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[dict] = []
        self.crashes: list[str] = []
        self.t0 = perf_counter()
        self.n_child = 0
        self.plan_seed = args.seed
        self.env = None

    def left(self) -> float:
        return self.seconds - (perf_counter() - self.t0)

    def child(self, *, plan=(), budget_s=0.0, min_passes=1, trace=False, baseline=None, env=False,
              role="measure") -> dict | None:
        self.n_child += 1
        tag = f"{self.workload}-s{self.seed}-t{int(self.trace)}-c{self.n_child}"
        cfg = {"warm": self.warm, "trace": trace, "plan": list(plan), "budget_s": budget_s,
               "min_passes": min_passes, "baseline": baseline, "env": env}
        if trace:
            cfg["spans_path"] = str(RESULTS / f"{tag}.spans.json")
        try:
            setup_s, res = run_child(cfg, tag)
        except ChildFailed as exc:
            # every operation the child was given for its first pass counts as failed
            lost = len(plan[0]) if plan else 0
            self.attempted += lost
            self.failed += lost
            self.crashes.append(str(exc))
            return None
        self.setups.append(setup_s)
        res["role"], res["traced"] = role, trace
        self.children.append(res)
        self.check(res)
        return res

    def check(self, res: dict):
        for op in res["ops"]:
            self.attempted += 1
            if op["error"] is not None:
                bad = [op["error"]]
            else:
                want = self.golden.get(W.golden_key(self.workload, op["id"]))
                bad = ["no golden verdict"] if want is None else W.mismatches(op["argv"], op["verdict"], want)
            if bad:
                self.failed += 1
                self.failures.append({"id": op["id"], "argv": op["argv"], "why": bad})

    def plan(self, passes: int) -> list:
        self.plan_seed += 1_000_003  # each child gets its own slice of the seeded order
        return W.pass_plan(self.workload, self.plan_seed, passes, self.quick)

    def measure(self, trace: bool, budget_s: float | None):
        """One measuring child. A warm child runs passes until `budget_s` would
        be overrun, at least one whole tail block; with no budget, one pass."""
        if not self.warm or budget_s is None:
            self.child(plan=self.plan(1), trace=trace)
        else:
            est_setup = statistics.median(self.setups) if self.setups else 2.0
            self.child(plan=self.plan(MAX_PASSES), budget_s=max(budget_s - est_setup, 0.0),
                       min_passes=TAIL_BLOCK_PASSES.get(self.workload, 1), trace=trace)

    def execute(self):
        for i in range(SETUP_ONLY_CHILDREN):
            res = self.child(env=(i == 0), role="setup")
            if res is not None and i == 0:
                self.env = res.get("env")
        if not self.trace:
            # one warm child for the whole budget; cold children until the next would overrun
            while True:
                t = perf_counter()
                self.measure(False, self.left())
                if self.warm or self.left() < perf_counter() - t:
                    return
        # untraced and traced children alternate, one pass or invocation each, so
        # that machine drift falls on both sides of trace.overhead_ratio
        traced = False
        while True:
            t = perf_counter()
            self.measure(traced, None)
            traced = not traced
            if not traced and self.left() < perf_counter() - t:
                break
        if self.quick:
            return
        if self.warm:
            self.child(baseline="search" if self.workload == "classify-search" else "evaluate_weyl", role="baseline")
        elif self.workload == "verify-dims-cold":
            for n in (6, 8, 9):
                self.child(baseline=n, role="baseline")


# --------------------------------------------------------------------------
# metrics
# --------------------------------------------------------------------------


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least 10 samples beyond it, and its level.

    Below 100 samples that percentile is under p90 (near the median for a
    single pass of 21), so the maximum is reported instead, at level 100.
    """
    s = sorted(samples)
    n = len(s)
    if n < 100:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def latency_tail(children: list[dict], workload: str) -> tuple[float, float, int, int]:
    """Median over whole blocks of each block's tail; also its level, block size and count.

    A block is TAIL_BLOCK_PASSES consecutive passes of one measuring child (one
    pass by default; a cold child runs a single one-invocation pass). Passes
    left over after the last whole block count for the other metrics only.
    """
    size = TAIL_BLOCK_PASSES.get(workload, 1)
    blocks = []
    for c in children:
        passes: dict[int, list[float]] = {}
        for op in c["ops"]:
            passes.setdefault(op["pass_index"], []).append(op["latency_s"])
        runs = list(passes.values())
        blocks += [sum(runs[i:i + size], []) for i in range(0, len(runs) - size + 1, size)]
    if not blocks:
        raise ChildFailed("no whole tail block completed")
    tails = [tail(b) for b in blocks]
    return statistics.median(t for t, _ in tails), tails[0][1], len(blocks[0]), len(blocks)


def units(run: Run, traced: bool) -> list[float]:
    """Time of one pass (classify) or one cold CLI invocation, per measuring child."""
    out = []
    for c in run.children:
        if c["role"] == "measure" and c["traced"] == traced:
            out += c["pass_times_s"]
    return out


def typical_latency(ops: list[dict]) -> float:
    """Median over the request list of each request's median latency in the run.

    The classify list mixes requests that differ threefold in cost, and the
    pooled median falls on the edge between two such groups, where a few
    samples from a briefly faster or slower machine move it by a third. Taking
    each request's median across passes first leaves the median request.
    """
    by_id: dict[str, list[float]] = {}
    for op in ops:
        by_id.setdefault(op["id"], []).append(op["latency_s"])
    return statistics.median(statistics.median(v) for v in by_id.values())


def end_to_end(run: Run) -> dict:
    measuring = [c for c in run.children if c["role"] == "measure"]
    ops = [op for c in measuring for op in c["ops"]]
    if not ops:
        raise ChildFailed("no operation completed")
    t, level, block_samples, n_blocks = latency_tail(measuring, run.workload)
    rss = [c["peak_rss_mb"] for c in run.children if c["role"] == "measure"]
    return {
        "latency_p50_ms": (1000.0 * typical_latency(ops), "ms"),
        "latency_tail_ms": (1000.0 * t, "ms"),
        "wall_s": (statistics.median(units(run, False)), "s"),
        "setup_s": (statistics.median(run.setups), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "_tail_percentile": level,
        "_tail_block_samples": block_samples,
        "_tail_blocks": n_blocks,
        "_samples": len(ops),
    }


LAYER_SPANS = {
    "chart.evaluate_ms": "chart.evaluate",
    "chart.cotton_ms": "chart.cotton",
    "simclass.decompose_ms": "simclass.decompose",
    "simclass.weyl_type_at_frame_ms": "simclass.weyl_type_at_frame",
    "simclass.weyl_type_search_ms": "simclass.weyl_type_search",
    "frames.complete_null_frame_ms": "frames.complete_null_frame",
    "frames.to_frame_ms": "frames.to_frame",
    "robclass.refined_flags_ms": "robclass.refined_flags",
    "robclass.predicates_ms": "robclass.predicates",
    "repdims.dim_checks_ms": "repdims.dim_checks",
    "repdims.arrow_delta_ms": "repdims.arrow_delta",
    "report.to_json_ms": "report.to_json",
    "cli.unattributed_ms": "cli.main",
}
LAYER_CALLS = {
    "simclass.decompose.calls": "simclass.decompose",
    "simclass.wand_residual.calls": "simclass.wand_residual",
    "frames.to_frame.calls": "frames.to_frame",
}
CATALOG_JOBS = ("iwasawa", "kk-bubble", "minkowski", "myers-perry", "pp-wave", "robinson-trautman",
                "robinson-trautman-spheres", "schwarzschild", "taub-nut", "walker")
ROADMAP_DIMS = (4, 5, 6, 7)
TABLE_DIMS = (4, 5, 6, 7, 8, 9)


def per_layer_names() -> list[str]:
    names = list(LAYER_SPANS) + list(LAYER_CALLS)
    names += ["chart.curvature_ms"] + [f"chart.curvature_ms.n{n}" for n in ROADMAP_DIMS]
    names += [f"modules.table_build_ms.{lv}.n{n}" for lv in ("sim", "rob") for n in TABLE_DIMS]
    names += ["modules.table_cache.hits", "modules.table_cache.misses", "simclass.search.refined_floor_max"]
    names += [f"catalog.run_expectations_ms.{job}" for job in CATALOG_JOBS]
    names += ["process.cpu_per_wall", "trace.overhead_ratio"]
    names += [f"baseline.evaluate_weyl_ms.n{n}" for n in ROADMAP_DIMS]
    names += [f"baseline.weyl_type_search_ms.n{n}" for n in ROADMAP_DIMS]
    names += [f"baseline.table_build_cold_ms.{lv}.n{n}" for lv in ("sim", "rob") for n in (6, 8, 9)]
    return names


def layer_unit(name: str) -> str:
    if name.endswith(".calls") or name.startswith("modules.table_cache."):
        return "count"
    return "ms" if "_ms" in name else "1"


def per_layer(run: Run) -> dict:
    """Per-layer metrics of the traced children.

    Span self times and call counts are per operation (one classify request,
    or one cold CLI invocation); catalog jobs report inclusive time. Table
    builds and table-cache counts are per interpreter, set-up included,
    because each interpreter builds its tables once. Every per-layer metric
    is printed on every workload; one whose layer the workload never reaches
    reads 0.
    """
    traced = [c for c in run.children if c["role"] == "measure" and c["traced"]]
    n_ops = sum(len(c["ops"]) for c in traced)
    if not n_ops:
        raise ChildFailed("no traced operation completed")
    ops_self: dict[str, float] = {}
    ops_calls: dict[str, int] = {}
    ops_incl: dict[str, float] = {}
    all_self: dict[str, float] = {}
    for c in traced:
        for op, name, s, calls, incl in c["layers"]:
            all_self[name] = all_self.get(name, 0.0) + s
            if op >= 0:
                ops_self[name] = ops_self.get(name, 0.0) + s
                ops_calls[name] = ops_calls.get(name, 0) + calls
                ops_incl[name] = ops_incl.get(name, 0.0) + incl
    m = dict.fromkeys(per_layer_names(), 0.0)
    for metric, span in LAYER_SPANS.items():
        m[metric] = 1000.0 * ops_self.get(span, 0.0) / n_ops
    for metric, span in LAYER_CALLS.items():
        m[metric] = ops_calls.get(span, 0) / n_ops
    for n in ROADMAP_DIMS:
        m[f"chart.curvature_ms.n{n}"] = 1000.0 * ops_self.get(f"chart.curvature.n{n}", 0.0) / n_ops
    curvature = sum(v for k, v in ops_self.items() if k.startswith("chart.curvature."))
    m["chart.curvature_ms"] = 1000.0 * curvature / n_ops
    for name, s in all_self.items():
        metric = name.replace("modules.table.build.", "modules.table_build_ms.", 1)
        if metric != name and metric in m:
            m[metric] = 1000.0 * s / len(traced)
    for key in ("hits", "misses"):
        m[f"modules.table_cache.{key}"] = sum(c["cache"][key] for c in traced) / len(traced)
    # catalog jobs run one after another, so their inclusive times split the regress wall time
    for job in CATALOG_JOBS:
        m[f"catalog.run_expectations_ms.{job}"] = 1000.0 * ops_incl.get(f"catalog.run_expectations.{job}", 0.0) / n_ops
    floors = [op["verdict"].get("refined_floor") for c in run.children for op in c["ops"] if op.get("verdict")]
    m["simclass.search.refined_floor_max"] = max((f for f in floors if f is not None), default=0.0)
    m["process.cpu_per_wall"] = sum(c["loop_cpu_s"] for c in traced) / sum(c["loop_wall_s"] for c in traced)
    m["trace.overhead_ratio"] = statistics.median(units(run, True)) / statistics.median(units(run, False))
    for c in run.children:
        m.update(c.get("baseline") or {})
    return {k: (v, layer_unit(k)) for k, v in m.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS + ("all",),
                    help="one workload, or 'all' to run each in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="tiny request lists, for the self-tests")
    args = ap.parse_args(argv)
    if not (SRC / "robcls" / "__init__.py").is_file():
        print(f"error: no robcls sources at {SRC}; run from the root of a robcls checkout", file=sys.stderr)
        return 2
    status = 0
    for workload in W.WORKLOADS if args.workload == "all" else (args.workload,):
        args.workload = workload
        status = max(status, run_workload(args))
    return status


def run_workload(args) -> int:
    calib_before = calibration_loop()
    run = Run(args)
    run.execute()
    calib_after = calibration_loop()
    try:
        metrics = per_layer(run) if run.trace else end_to_end(run)
    except ChildFailed as exc:
        print(f"error: {exc}; {run.crashes}", file=sys.stderr)
        return 1
    extra = {k: metrics.pop(k) for k in [k for k in metrics if k.startswith("_")]}
    failed_ratio = run.failed / max(run.attempted, 1)

    record = {
        "workload": run.workload, "seed": run.seed, "seconds": run.seconds, "trace": int(run.trace),
        "quick": run.quick, "time": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "environment": dict(run.env or {}, cpu_model=cpu_model(), unset_env=list(UNSET_ENV)),
        "calibration_s": {"before": calib_before, "after": calib_after},
        "setups_s": run.setups, "attempted": run.attempted, "failed": run.failed,
        "failed_ratio": failed_ratio, "failures": run.failures[:20], "crashes": run.crashes,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, **extra,
        "children": [{k: v for k, v in c.items() if k not in ("ops", "layers")} |
                     {"ids": [op["id"] for op in c["ops"]],
                      "latencies_s": [op["latency_s"] for op in c["ops"]],
                      "table_misses": [op["table_misses"] for op in c["ops"]]} for c in run.children],
    }
    RESULTS.mkdir(exist_ok=True)
    out_path = RESULTS / f"{run.workload}-s{run.seed}-t{int(run.trace)}.json"
    out_path.write_text(json.dumps(record, indent=1))

    for name, (value, unit) in metrics.items():
        print(f"{run.workload} {name} {value:.6g} {unit}")
    print(f"{run.workload} failed_ratio {failed_ratio:.6g} 1 ({run.failed}/{run.attempted})")
    if "_tail_percentile" in extra:
        print(f"{run.workload} latency_tail is p{extra['_tail_percentile']:.4g} of blocks of "
              f"{extra['_tail_block_samples']} samples, median of {extra['_tail_blocks']} blocks "
              f"({extra['_samples']} samples in all)")
    print(f"{run.workload} calibration_loop_s before {calib_before:.4f} after {calib_after:.4f} (drift only)")
    print(f"{run.workload} record {out_path.relative_to(REPO)}")
    gated = metrics if run.trace else {k: metrics[k] for k in END_TO_END}
    print(json.dumps({
        "correct": run.failed == 0 and not run.crashes,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in gated.items()},
    }))
    return 0


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


if __name__ == "__main__":
    sys.exit(main())
