"""Write `golden.json`: the verdicts every benchmark operation must reproduce.

    PYTHONPATH=src python3 perfbench/make_golden.py

Runs each operation of every workload once in this interpreter and records
its verdict (see `workloads.verdict_of`). Each classify request is run with
every seed of `workloads.ROBINSON_POOL`, and the script stops if any two
seeds give different verdicts. Regenerate only in a change whose purpose is
to change a verdict, and say so in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import workloads as W


def run(argv):
    from robcls import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return W.verdict_of(argv, code, buf.getvalue())


def main() -> int:
    golden = {}
    for workload, search in (("classify-warm", False), ("classify-search", True)):
        for req in W.classify_requests(search):
            first = None
            for seed in W.ROBINSON_POOL:
                argv = W.classify_argv(req, seed, search)
                verdict = run(argv)
                verdict.pop("refined_floor")
                if first is None:
                    first = verdict
                elif W.mismatches(argv, verdict, first):
                    print(f"{workload} {req['id']}: verdict depends on the Robinson seed ({seed})", file=sys.stderr)
                    return 1
            golden[W.golden_key(workload, req["id"])] = first
            print(workload, req["id"], first["type"], first["exit_code"], flush=True)
    golden["verify-dims-cold"] = run(W.VERIFY_ARGV)
    golden["regress-cold"] = run(W.REGRESS_ARGV)
    for key in ("verify-dims-cold", "regress-cold"):
        if golden[key]["exit_code"] != 0:
            print(f"{key} exited {golden[key]['exit_code']}", file=sys.stderr)
            return 1
    with open(W.GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
