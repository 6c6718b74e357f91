"""Self-test of the benchmark itself.

    python3 bench/selftest.py

For every workload in BENCHMARK.json it makes a one-round run twice and a
traced one-round run, and checks that:
  * the emitted metric names are exactly the end-to-end (untraced) or
    per-layer (traced) names of BENCHMARK.json, each with its unit;
  * no op failed (ok_ratio 1, failed 0, correct true);
  * two runs on one seed produce identical op lists and answers.
Exits 1 on the first violated property, 0 when all hold.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7


def run(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0", "--rounds", "1", "--trace", str(trace)],
        cwd=str(ROOT), capture_output=True, text=True, timeout=600, check=False,
    )
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    saved = HERE / "out" / f"result-{workload}-seed{SEED}-trace{trace}.json"
    return result, json.loads(saved.read_text())


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    try:
        for workload in (w["name"] for w in spec["workloads"]):
            runs = []
            for trace in (0, 0, 1):
                result, saved = run(workload, trace)
                emitted = {k: v["unit"] for k, v in result["metrics"].items()}
                expect(emitted == units[trace],
                       f"{workload} trace={trace}: metric names or units differ from "
                       f"BENCHMARK.json: {sorted(set(emitted) ^ set(units[trace]))}")
                expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                       f"{workload} trace={trace}: failures {saved['notes']['failures']}")
                if trace == 0:
                    expect(result["metrics"]["ok_ratio"]["value"] == 1.0,
                           f"{workload}: ok_ratio below 1")
                    runs.append(saved["ops"])
                print(f"ok  {workload} trace={trace} attempted={result['attempted']}", flush=True)
            expect(runs[0] == runs[1], f"{workload}: two runs on one seed differ")
            print(f"ok  {workload}: identical op lists and answers on seed {SEED}", flush=True)
    except AssertionError as exc:
        print(f"FAIL {exc}", flush=True)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
