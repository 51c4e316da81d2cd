"""Smoke test of the benchmark: a tiny run of every workload, untraced and
traced, must print a result line whose schema and metric names match
BENCHMARK.json; and without ``src`` next to it the benchmark must fail.

    python3 perfbench/smoke_test.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BARE_DIR = ROOT / ".perfbench-work" / "bare"


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
               "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(spec: dict, workload: str, trace: int) -> None:
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert set(result["metrics"]) == set(expected), set(result["metrics"]) ^ set(expected)
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}, name
        assert metric["unit"] == expected[name], name
        assert isinstance(metric["value"], (int, float)), name
        assert f"\n{name} " in proc.stdout, f"{name} is not printed by name"


def check_bare_directory_fails(spec: dict) -> None:
    shutil.rmtree(BARE_DIR, ignore_errors=True)
    BARE_DIR.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", BARE_DIR)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, BARE_DIR / path, ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = run(BARE_DIR, spec["workloads"][0]["name"], 0)
        assert proc.returncode != 0, "benchmark succeeded without the program's sources"
        assert '"correct"' not in proc.stdout, "benchmark printed a result without the program"
    finally:
        shutil.rmtree(BARE_DIR)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_result(spec, workload, trace)
            print(f"ok {workload} trace={trace}")
    check_bare_directory_fails(spec)
    print("ok bare directory fails")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
