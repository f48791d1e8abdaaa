"""One fresh interpreter of a benchmark run: set up, run operations, report.

Usage: python3 perfbench/child.py CONFIG.json

The parent times this process from spawn to the `READY` line it prints once
set-up is done (import robcls; for the warm workloads also build the C tables).
It then runs the planned passes in a closed loop, one `robcls.cli.main(argv)`
at a time, until its budget would be overrun (at least `min_passes`), and prints
one JSON line with per-operation latencies and verdicts. Verdicts are taken
after each operation's clock has stopped.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import traceback
from time import perf_counter

import workloads as W  # sibling module: the script's directory is on sys.path

# robcls is imported inside the functions below, after main() has installed
# the tracer (if any), so that a traced child never holds an unwrapped name.


def cache_totals() -> dict:
    import robcls.modules as modules

    infos = (modules.sim_table.cache_info(), modules.rob_table.cache_info())
    return {"hits": sum(i.hits for i in infos), "misses": sum(i.misses for i in infos)}


def cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def os_threads() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return -1


def environment() -> dict:
    import platform

    import numpy as np
    import scipy

    import robcls

    np.ones((256, 256)) @ np.ones((256, 256))  # start the BLAS worker threads, if any
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "robcls": robcls.__version__,
        "blas": blas,
        "os_threads_after_matmul": os_threads(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def run_op(cli, argv: list[str]) -> dict:
    buf = io.StringIO()
    error = None
    code = None
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except (Exception, SystemExit):  # an operation that raises or exits counts as failed; keep going
        error = traceback.format_exc(limit=4)
    latency = perf_counter() - t0
    rec = {"latency_s": latency, "error": error}
    if error is None:
        try:
            rec["verdict"] = W.verdict_of(argv, code, buf.getvalue())
        except (ValueError, KeyError, TypeError) as exc:
            rec["error"] = f"unreadable output: {exc!r}"
    return rec


def baseline_evaluate_weyl() -> dict:
    """evaluate + Weyl, Schwarzschild r = 3, median of 3 per dimension."""
    from robcls.catalog import ENTRIES

    out = {}
    for n in (4, 5, 6, 7):
        chart = ENTRIES["schwarzschild"].chart({"dim": n})
        point = [0.0, 3.0] + [0.0] * (n - 2)
        times = []
        for _ in range(3):
            t0 = perf_counter()
            chart.evaluate(point).weyl
            times.append(perf_counter() - t0)
        out[f"baseline.evaluate_weyl_ms.n{n}"] = 1000.0 * sorted(times)[1]
    return out


def baseline_search() -> dict:
    """weyl_type_search on the 10k grid, Schwarzschild r = 3, one run per dimension."""
    from robcls.catalog import ENTRIES
    from robcls.simclass import weyl_type_search

    out = {}
    for n in (4, 5, 6, 7):
        cp = ENTRIES["schwarzschild"].chart({"dim": n}).evaluate([0.0, 3.0] + [0.0] * (n - 2))
        C, g = cp.weyl, cp.g
        t0 = perf_counter()
        weyl_type_search(C, g)
        out[f"baseline.weyl_type_search_ms.n{n}"] = 1000.0 * (perf_counter() - t0)
    return out


def baseline_tables(n: int) -> dict:
    """Cold C-table builds in this fresh interpreter."""
    import robcls.modules as modules

    t0 = perf_counter()
    modules.sim_table("C", n)
    t1 = perf_counter()
    modules.rob_table("C", n)
    t2 = perf_counter()
    return {f"baseline.table_build_cold_ms.sim.n{n}": 1000.0 * (t1 - t0),
            f"baseline.table_build_cold_ms.rob.n{n}": 1000.0 * (t2 - t1)}


def main() -> None:
    with open(sys.argv[1]) as fh:
        cfg = json.load(fh)
    tracer = None
    if cfg["trace"]:
        import tracer as T

        tracer = T.install()
    import robcls.cli as cli
    import robcls.modules as modules

    if cfg["warm"]:
        for n in W.WARM_TABLE_DIMS:
            modules.sim_table("C", n)
            modules.rob_table("C", n)
    proto = sys.stdout  # robcls output is captured per operation; this stream carries only the protocol
    proto.write("READY\n")
    proto.flush()

    result: dict = {"setup_cache": cache_totals()}
    if cfg.get("env"):
        result["env"] = environment()
    ops = []
    pass_times = []
    t_loop = perf_counter()
    cpu_loop = cpu_seconds()
    for p, plan in enumerate(cfg["plan"]):
        if p >= cfg["min_passes"] and perf_counter() - t_loop + pass_times[-1] > cfg["budget_s"]:
            break
        total = 0.0
        for op in plan:
            if tracer is not None:
                tracer.op = len(ops)
            misses = cache_totals()["misses"]
            rec = run_op(cli, op["argv"])
            if tracer is not None:
                tracer.op = -2  # between operations
            rec.update(id=op["id"], argv=op["argv"], pass_index=p, table_misses=cache_totals()["misses"] - misses)
            ops.append(rec)
            total += rec["latency_s"]
        pass_times.append(total)
    result["loop_wall_s"] = perf_counter() - t_loop
    result["loop_cpu_s"] = cpu_seconds() - cpu_loop
    result["ops"] = ops
    result["pass_times_s"] = pass_times
    result["cache"] = cache_totals()

    extra = cfg.get("baseline")
    if extra == "evaluate_weyl":
        result["baseline"] = baseline_evaluate_weyl()
    elif extra == "search":
        result["baseline"] = baseline_search()
    elif isinstance(extra, int):
        result["baseline"] = baseline_tables(extra)

    if tracer is not None:
        result["layers"] = [[op, name, *acc] for (op, name), acc in tracer.self_times().items()]
        if cfg.get("spans_path"):
            with open(cfg["spans_path"], "w") as fh:
                json.dump(tracer.spans, fh, separators=(",", ":"))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    proto.write(json.dumps(result) + "\n")
    proto.flush()


if __name__ == "__main__":
    main()
