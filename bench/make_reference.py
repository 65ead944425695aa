"""Record the outputs the benchmark's correctness gate compares against.

    python3 bench/make_reference.py

Runs every workload once at its reference seed, in both sizes (full and
smoke), and rewrites ``reference.json`` with the checked values and the
sha256 of each report.  Run it only at a commit whose outputs are accepted
as correct; a later run of the benchmark then checks every commit against
that one.
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def main() -> int:
    workloads = run.load_json("workloads.json")["workloads"]
    doc = {"commit": run.environment(0, [])["commit"]}
    for name, spec in workloads.items():
        doc[name] = {}
        for size in ("full", "smoke"):
            wl = run.workload(spec, size)
            seed = spec["reference_seed"]
            workdir = run.prepare(wl, f"reference-{name}-{size}")
            rep = run.run_child(wl, None, seed, workdir, 0, "plain", timeout=900.0)
            if rep.problems:
                print(f"{name} ({size}): {'; '.join(rep.problems)}", file=sys.stderr)
                return 1
            shutil.rmtree(workdir)
            doc[name][size] = {"seed": seed, **rep.values, "report_sha256": rep.digest}
            print(f"{name} ({size}): {rep.wall_s:.2f} s, sha256 {rep.digest}")
    (run.BENCH / "reference.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
