"""Self-test of the benchmark at smoke size; finishes in about a minute.

    python3 bench/selftest.py

For every workload it runs ``run.py --size smoke`` untraced and traced and
requires a correct result that carries every metric ``BENCHMARK.json``
names, with its unit.  The traced run already fails unless traced and
untraced children wrote identical reports.  Last, it checks that the
benchmark refuses to run, with a non-zero exit and no result line, in a
directory that holds only ``BENCHMARK.json`` and the benchmark's files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run


def invoke(command: list, root, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*command, "--workload", workload, "--seed", "0", "--seconds", "1",
         "--trace", str(trace), "--size", "smoke"],
        cwd=root, capture_output=True, text=True, timeout=180,
    )


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = invoke(spec["command"], run.ROOT, workload, trace)
            tag = f"{workload} trace={trace}"
            if proc.returncode != 0:
                failures.append(f"{tag}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                failures.append(f"{tag}: incorrect result\n{proc.stdout[-2000:]}")
            metrics = result["metrics"]
            for m in wanted[trace]:
                got = metrics.get(m["name"])
                if got is None or got["unit"] != m["unit"] or got["value"] is None:
                    failures.append(f"{tag}: metric {m['name']} [{m['unit']}] got {got}")
            extra = set(metrics) - {m["name"] for m in wanted[trace]}
            if extra:
                failures.append(f"{tag}: metrics not in BENCHMARK.json: {sorted(extra)}")
            print(f"{tag}: {len(metrics)} metrics, correct={result['correct']}")

    bare = run.RUNS / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(run.ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = invoke(spec["command"], bare, spec["workloads"][0]["name"], 0)
    if proc.returncode == 0 or proc.stdout.strip():
        failures.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    else:
        print(f"bare directory: exit {proc.returncode}, no result")
    shutil.rmtree(bare)

    for failure in failures:
        print("FAIL", failure)
    print("selftest", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
