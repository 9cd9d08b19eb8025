"""Self-test of the benchmark.

Runs every workload of BENCHMARK.json at a tiny size, untraced and traced,
twice with the same seed, and asserts that

* every metric BENCHMARK.json names is printed, with its unit, and nothing
  else; ``metrics.py`` defines the same names, units and directions;
* the runs are valid (``correct``) and the two runs give identical counts,
  attempted and failed solves, and ``failed_share``;
* in a directory holding only BENCHMARK.json and the benchmark, the
  benchmark exits with an error and prints no result.

Usage, from the root of a checkout: python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 5
# ratios of times, which differ from run to run
TIMED_RATIOS = {"conjugate.rootfind_share"}


def run(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def result(workload: str, trace: int) -> dict:
    done = run(ROOT, workload, trace)
    if done.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_definitions(spec: dict) -> None:
    for key, table in (("end_to_end", metrics.END_TO_END), ("per_layer", metrics.PER_LAYER)):
        declared = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        defined = {name: row[:2] for name, row in table.items()}
        assert declared == defined, f"BENCHMARK.json {key} differs from metrics.py"


def deterministic(name: str, unit: str) -> bool:
    return unit == "count" or (unit == "ratio" and name not in TIMED_RATIOS)


def check_workload(workload: str, expected: dict) -> None:
    for trace, units in expected.items():
        a, b = result(workload, trace), result(workload, trace)
        for out in (a, b):
            assert set(out) == {"correct", "attempted", "failed", "metrics"}
            assert out["correct"] is True, f"{workload} trace={trace}: not correct"
            got = {name: m["unit"] for name, m in out["metrics"].items()}
            assert got == units, f"{workload} trace={trace}: metrics or units differ"
            for name, m in out["metrics"].items():
                assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name
        assert (a["attempted"], a["failed"]) == (b["attempted"], b["failed"])
        for name, unit in units.items():
            if deterministic(name, unit):
                assert a["metrics"][name] == b["metrics"][name], \
                    f"{workload} trace={trace}: {name} differs between runs"
        print(f"ok {workload} trace={trace}: {a['attempted']} attempted, "
              f"{a['failed']} failed")


def check_bare_directory(spec: dict) -> None:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        done = run(bare, spec["workloads"][0]["name"], 0)
        assert done.returncode != 0, "benchmark succeeded without the package"
        assert '"correct"' not in done.stdout, "benchmark printed a result without the package"
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok: exits with an error where the package is missing")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_definitions(spec)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in spec["workloads"]:
        check_workload(workload["name"], expected)
    check_bare_directory(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
