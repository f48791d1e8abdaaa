"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Run from the root of a robcls checkout. Exits 0 when every check passes.
Not collected by the repository's pytest run: the quick end-to-end runs take
about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))

import workloads as W  # noqa: E402


def bench(workload, *extra, seed=3, trace=0, cwd=REPO):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def last_json(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_catalog_points_match_robcls():
    sys.path.insert(0, str(REPO / "src"))
    from robcls.catalog import ENTRIES

    for name, pts in W.CATALOG_POINTS.items():
        entry = ENTRIES[name]
        got = [tuple(float(v) for v in p) for p in entry.sample_points(dict(entry.default_params))]
        assert got == [tuple(p) for p in pts], name
    lorentzian = {n for n, e in ENTRIES.items() if e.chart().signature[0] < 0}
    assert lorentzian == set(W.CATALOG_POINTS)


def test_seed_changes_order_and_robinson_seeds_not_multiset():
    for workload in W.WORKLOADS:
        a, b = W.pass_plan(workload, 1, 3), W.pass_plan(workload, 2, 3)
        assert len(a) == len(b) == 3
        strip = lambda op: tuple(x for x in op["argv"] if not x.startswith("random:"))  # noqa: E731
        for pa, pb in zip(a, b):
            assert Counter(map(strip, pa)) == Counter(map(strip, pb)), workload
        assert W.pass_plan(workload, 1, 3) == a, "same seed, same plan"
        if workload in W.WARM:
            assert [op["id"] for op in a[0]] != [op["id"] for op in b[0]], workload
            seeds = lambda plan: [op["argv"][op["argv"].index("--robinson") + 1] for p in plan for op in p]  # noqa: E731
            assert seeds(a) != seeds(b), workload
            assert all(int(s.split(":")[1]) in W.ROBINSON_POOL for s in seeds(a) + seeds(b))


def checkout_copy(name: str) -> Path:
    """A scratch checkout under results/: BENCHMARK.json and a copy of perfbench/, no sources."""
    root = RESULTS / name
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    shutil.copy(REPO / "BENCHMARK.json", root)
    shutil.copytree(HERE, root / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    return root


def test_mutated_golden_counts_as_failed():
    golden = W.load_golden()
    first = W.pass_plan("classify-warm", 0, 1, quick=True)[0][0]["id"]
    golden[W.golden_key("classify-warm", first)]["type"] = "mutated"
    golden["regress-cold"]["jobs"]["minkowski"][0][1] = "FAIL"
    mutated = checkout_copy("mutated-golden")
    (mutated / "src").symlink_to(REPO / "src")
    (mutated / "perfbench" / "golden.json").write_text(json.dumps(golden))
    for workload in ("classify-warm", "regress-cold"):
        out = last_json(bench(workload, "--quick", cwd=mutated))
        assert out["failed"] >= 1 and out["correct"] is False, (workload, out)
        clean = last_json(bench(workload, "--quick"))
        assert clean["failed"] == 0 and clean["correct"] is True, (workload, clean)
    shutil.rmtree(mutated)


def test_tail_request_does_not_depend_on_pass_count():
    import run

    # 20 requests near 200 ms and one at 650 ms per pass, as on classify-warm
    cost = {f"r{i}": 0.200 + 0.001 * i for i in range(20)} | {"heavy": 0.650}
    for passes in range(run.TAIL_BLOCK_PASSES["classify-warm"], 16):
        ops = [{"pass_index": p, "latency_s": v} for p in range(passes) for v in cost.values()]
        t, level, block_samples, n_blocks = run.latency_tail([{"ops": ops}], "classify-warm")
        assert t < 0.25 and block_samples == 105 and n_blocks == passes // 5, (passes, t, block_samples)


def test_cold_workloads_miss_table_cache_on_first_operation():
    for workload in ("verify-dims-cold", "regress-cold"):
        last_json(bench(workload, "--quick", seed=5))
        record = json.loads((RESULTS / f"{workload}-s5-t0.json").read_text())
        measuring = [c for c in record["children"] if c["role"] == "measure"]
        assert measuring and all(c["table_misses"][0] > 0 for c in measuring), workload
    last_json(bench("classify-warm", "--quick", seed=5))
    record = json.loads((RESULTS / "classify-warm-s5-t0.json").read_text())
    assert all(m == 0 for c in record["children"] for m in c["table_misses"]), "warm tables"


def test_quick_mode_runs_every_workload():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for workload in (w["name"] for w in spec["workloads"]):
            out = last_json(bench(workload, "--quick", trace=trace))
            assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1, (workload, trace, out)
            assert {k: v["unit"] for k, v in out["metrics"].items()} == want, (workload, trace)
            if key == "end_to_end":
                assert all(v["value"] > 0 for v in out["metrics"].values()), (workload, out)


def test_refuses_without_sources():
    bare = checkout_copy("bare-checkout")
    proc = bench("classify-warm", cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and '"metrics"' not in proc.stdout, proc.stdout


def main() -> int:
    tests = [v for k, v in globals().items() if k.startswith("test_")]
    failed = 0
    for test in tests:
        try:
            test()
            print(f"PASS {test.__name__}")
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {test.__name__}: {exc}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
