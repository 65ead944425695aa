"""Benchmark of the spinboson command line, one workload per invocation.

    python3 bench/run.py --workload ladder --seed 0 --seconds 30 --trace 0

Each repetition runs the CLI subcommand of the workload as a child process
(``child.py``, one process at a time, ``--jobs 1``, BLAS threads left at
their default) on the config in ``workloads.json`` and checks its reports
against ``reference.json``.  Repetitions start until the next one would end
after ``--seconds``.

``--trace 0`` reports the end-to-end metrics of untraced children: medians
of wall, set-up, CPU time and peak RSS, and the share of correct runs.
The time left after the last child is filled with children that exit where
the subcommand would begin, which add samples of the set-up time.
``--trace 1`` alternates untraced and traced children (at least two
pairs), then adds one traced child with BLAS pinned to one thread, and
reports the per-layer metrics of the traced ones.  It also requires that
traced and untraced children wrote identical reports and that the exact
counters repeat across traced children.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD = BENCH / "child.py"
RUNS = ROOT / ".bench_run"
HARD_LIMIT_S = 170.0  # the whole invocation must end within 180 s
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
LAMBDA_TOL = 1e-9
K_REL_TOL = 1e-6

# counts that must repeat exactly across traced children of one seed
EXACT_COUNTERS = (
    "spectral.lu.count",
    "spectral.lu.dim3",
    "spectral.eig.calls",
    "spectral.eig.dim3",
    "spectral.contour.nodes",
    "model.assemble_hamiltonian.calls",
    "spectral.svds.calls",
)


def load_json(name: str) -> dict:
    return json.loads((BENCH / name).read_text())


@dataclass
class Rep:
    """One child run: its timings, its checked outputs and its trace.

    ``mode`` is plain (untraced), trace, serial (traced, BLAS on one
    thread) or setup (exits where the subcommand would start).
    """

    mode: str
    wall_s: float = math.nan
    setup_s: float = math.nan
    cpu_s: float = math.nan
    rss_mb: float = math.nan
    problems: list = field(default_factory=list)
    values: dict = field(default_factory=dict)
    digest: str = ""
    blas: list = field(default_factory=list)
    trace: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.problems


# ---------------------------------------------------------------- outputs


def extract(kind: str, out: Path) -> dict:
    """The values of a finished run that the correctness gate compares."""
    if kind == "ladder":
        doc = json.loads((out / "trace.json").read_text())
        return {
            "lambda": [
                [rec["n"], int(i), *lv["lambda"]]
                for rec in doc["scales"]
                for i, lv in sorted(rec["levels"].items())
            ]
        }
    if kind == "resolvent-scan":
        doc = json.loads((out / "resolvent_scan.json").read_text())
        with open(out / "resolvent_scan.csv", encoding="utf-8") as fh:
            csv_rows = sum(1 for _ in fh) - 1
        return {
            "vertex": doc["vertex"],
            "K": doc["K"],
            "n_used": doc["n_used"],
            "csv_rows": csv_rows,
        }
    if kind == "verify-appendix":
        doc = json.loads((out / "verify_appendix.json").read_text())
        return {"pass": doc["pass"], "trials": doc["trials"]}
    raise ValueError(f"unknown subcommand {kind!r}")


def check(kind: str, got: dict, ref: dict, config: dict, seed: int) -> list[str]:
    """Problems found comparing ``got`` with the recorded reference."""
    problems = []
    if kind == "ladder":
        have = {(n, i): (re, im) for n, i, re, im in got["lambda"]}
        want = {(n, i): (re, im) for n, i, re, im in ref["lambda"]}
        if set(have) != set(want):
            return [f"tracked (scale, level) pairs {sorted(have)} != {sorted(want)}"]
        for key, (re, im) in want.items():
            err = max(abs(have[key][0] - re), abs(have[key][1] - im))
            if not err <= LAMBDA_TOL:
                problems.append(f"lambda at scale/level {key} off by {err:.3e}")
    elif kind == "resolvent-scan":
        err = max(abs(a - b) for a, b in zip(got["vertex"], ref["vertex"]))
        if not err <= LAMBDA_TOL:
            problems.append(f"vertex lambda_1 off by {err:.3e}")
        requested = config["run"]["n_samples"]
        if got["n_used"] != requested or got["csv_rows"] != requested:
            problems.append(
                f"{got['n_used']} samples used, {got['csv_rows']} CSV rows, "
                f"{requested} requested"
            )
        k = got["K"]
        if not (isinstance(k, float) and math.isfinite(k) and k > 0):
            problems.append(f"K = {k!r} is not finite and positive")
        elif seed == ref["seed"] and not abs(k - ref["K"]) <= K_REL_TOL * abs(ref["K"]):
            problems.append(f"K = {k!r} differs from the reference {ref['K']!r}")
    elif kind == "verify-appendix":
        if got["pass"] is not True:
            problems.append("appendix estimates reported a violation")
        if got["trials"] != ref["trials"]:
            problems.append(f"{got['trials']} trials, expected {ref['trials']}")
    return problems


def report_digest(out: Path) -> str:
    """sha256 over the report files, manifest (timestamps) excluded."""
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        if path.name != "manifest.json":
            h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


# ------------------------------------------------------------- child runs


def wait_with_usage(proc: subprocess.Popen, timeout: float):
    """Reap ``proc`` and return (exit code, resource usage); kill on timeout."""
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def workload(spec: dict, size: str) -> dict:
    """Subcommand and config of a workload at ``size`` (full or smoke)."""
    key = "config" if size == "full" else "smoke_config"
    return {"subcommand": spec["subcommand"], "config": spec[key]}


def prepare(wl: dict, tag: str) -> Path:
    """Fresh directory for the children of one session, holding the config."""
    workdir = RUNS / tag
    workdir.mkdir(parents=True, exist_ok=True)
    (workdir / "config.json").write_text(json.dumps(wl["config"]))
    return workdir


def run_child(wl: dict, ref: dict | None, seed: int, workdir: Path, index: int,
              mode: str, timeout: float) -> Rep:
    rep = Rep(mode)
    out = workdir / f"rep{index}"
    result = workdir / f"rep{index}.json"
    cmd = [
        sys.executable, str(CHILD), str(result),
        "trace" if mode == "serial" else mode, "--",
        wl["subcommand"], "--config", str(workdir / "config.json"),
        "--out", str(out), "--seed", str(seed), "--jobs", "1",
    ]
    env = dict(os.environ)
    if mode == "serial":
        env.update({var: "1" for var in BLAS_THREAD_VARS})
    with open(workdir / f"rep{index}.log", "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=log,
                                stderr=subprocess.STDOUT)
        code, usage = wait_with_usage(proc, timeout)
        rep.wall_s = time.perf_counter() - start
    rep.cpu_s = usage.ru_utime + usage.ru_stime
    rep.rss_mb = usage.ru_maxrss / 1024.0  # Linux reports KiB
    if code != 0:
        rep.problems.append(f"exit status {code} (log: {workdir.name}/rep{index}.log)")
        return rep
    try:
        child = json.loads(result.read_text())
        rep.setup_s = child["dispatch_start"] - start
        if mode == "setup":
            return rep
        rep.values = extract(wl["subcommand"], out)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        rep.problems.append(f"missing or unreadable output: {exc!r}")
        return rep
    rep.blas = child["blas"]
    rep.trace = child.get("trace", {})
    rep.digest = report_digest(out)
    if ref is not None:
        rep.problems += check(wl["subcommand"], rep.values, ref, wl["config"], seed)
    shutil.rmtree(out)
    return rep


class Session:
    """The repetitions of one invocation, bounded by its time budget."""

    def __init__(self, wl: dict, ref: dict, seed: int, seconds: float, workdir: Path):
        self.wl, self.ref, self.seed, self.workdir = wl, ref, seed, workdir
        self.start = time.perf_counter()
        self.deadline = self.start + seconds
        self.reps: list[Rep] = []  # subcommand runs
        self.setups: list[Rep] = []  # set-up-only children

    def run(self, mode: str) -> Rep:
        left = HARD_LIMIT_S - (time.perf_counter() - self.start)
        index = len(self.reps) + len(self.setups)
        rep = run_child(self.wl, self.ref, self.seed, self.workdir, index, mode,
                        max(left, 1.0))
        (self.setups if mode == "setup" else self.reps).append(rep)
        return rep

    def room_for(self, seconds: float) -> bool:
        return time.perf_counter() + seconds <= self.deadline


# ----------------------------------------------------------------- metrics


def median(xs) -> float:
    xs = [x for x in xs if not math.isnan(x)]
    return statistics.median(xs) if xs else math.nan


def tail(xs) -> tuple[float, float]:
    """Highest whole percentile with at least ten samples above it."""
    xs = sorted(xs)
    if len(xs) < 11:
        return math.nan, math.nan
    pct = math.floor(100.0 * (len(xs) - 10) / len(xs))
    return float(pct), statistics.quantiles(xs, n=100, method="inclusive")[pct - 1]


def end_to_end(reps: list[Rep], setups: list[Rep]) -> dict:
    good = [r for r in reps if r.ok]
    started = [r.setup_s for r in good + setups if r.ok]
    return {
        "wall_s": (median(r.wall_s for r in good), "s", len(good)),
        "setup_s": (median(started), "s", len(started)),
        "cpu_s": (median(r.cpu_s for r in good), "s", len(good)),
        "peak_rss_mb": (median(r.rss_mb for r in good), "MB", len(good)),
        "success_frac": (len(good) / len(reps), "ratio", len(reps)),
    }


def _stat(rep: Rep, name: str, col: int) -> float:
    return float(rep.trace.get("stats", {}).get(name, [0, 0.0, 0.0])[col])


def _count(rep: Rep, name: str) -> float:
    return float(rep.trace.get("counters", {}).get(name, 0.0))


def layer_values(rep: Rep) -> dict:
    """Per-layer numbers of one traced child, keyed by metric name."""
    calls = {
        "spectral.lu.count": "spectral.lu",
        "spectral.lu_solve.count": "spectral.lu_solve",
        "spectral.riesz_rank_one.calls": "spectral.riesz_rank_one",
        "spectral.eig.calls": "spectral.eig",
        "spectral.resolvent_norm.calls": "spectral.resolvent_norm",
        "spectral.svds.calls": "spectral.svds",
        "spectral.track_eigenvalue.calls": "spectral.track_eigenvalue",
        "model.assemble_hamiltonian.calls": "model.assemble_hamiltonian",
        "model.interaction_norm_bound.calls": "model.interaction_norm_bound",
        "fock.enumerate_basis.calls": "fock.enumerate_basis",
        "fock.verify_standard_estimates.calls": "fock.verify_standard_estimates",
        "geometry.region_contains.calls": "geometry.region_contains",
        "geometry.dist_to_cone.calls": "geometry.dist_to_cone",
    }
    inclusive = {
        "spectral.lu.s": "spectral.lu",
        "spectral.lu_solve.s": "spectral.lu_solve",
        "spectral.riesz_rank_one.s": "spectral.riesz_rank_one",
        "spectral.eig.s": "spectral.eig",
        "spectral.resolvent_norm.s": "spectral.resolvent_norm",
        "spectral.track_eigenvalue.s": "spectral.track_eigenvalue",
        "model.assemble_hamiltonian.s": "model.assemble_hamiltonian",
        "model.embedding_indices.s": "model.embedding_indices",
        "model.interaction_norm_bound.s": "model.interaction_norm_bound",
        "fock.enumerate_basis.s": "fock.enumerate_basis",
        "fock.verify_standard_estimates.s": "fock.verify_standard_estimates",
        "geometry.region_contains.s": "geometry.region_contains",
        "geometry.dist_to_cone.s": "geometry.dist_to_cone",
        "multiscale.run_ladder.s": "multiscale.run_ladder",
        "multiscale.extrapolate_limit.s": "multiscale.extrapolate_limit",
        "constants.compute_constants.s": "constants.compute_constants",
        "reporting.write_json.s": "reporting.write_json",
    }
    own = {
        "spectral.riesz_rank_one.self_s": "spectral.riesz_rank_one",
        "spectral.track_eigenvalue.self_s": "spectral.track_eigenvalue",
        "multiscale.run_ladder.self_s": "multiscale.run_ladder",
        "diagnostics.resolvent_cone_bound_check.self_s":
            "diagnostics.resolvent_cone_bound_check",
        "cli.dispatch.self_s": "cli.dispatch",
    }
    counters = (
        "spectral.lu.dim3",
        "spectral.eig.dim3",
        "spectral.contour.nodes",
        "spectral.contour.doublings",
        "spectral.svds.fallbacks",
        "model.assembled_dim",
        "fock.basis_states",
        "reporting.write_json.bytes",
    )
    vals = {k: _stat(rep, v, 0) for k, v in calls.items()}
    vals.update({k: _stat(rep, v, 1) for k, v in inclusive.items()})
    vals.update({k: _stat(rep, v, 2) for k, v in own.items()})
    vals.update({k: _count(rep, k) for k in counters})
    return vals


def per_layer(reps: list[Rep], wl: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics of a traced session plus the problems found."""
    plain = [r for r in reps if r.mode == "plain"]
    traced = [r for r in reps if r.mode == "trace"]
    serial = [r for r in reps if r.mode == "serial"]
    problems = []
    # the serial child is left out: another BLAS thread count may change
    # the last digits of the reports
    digests = {r.digest for r in plain + traced if r.ok}
    if len(digests) > 1:
        problems.append("traced and untraced children wrote different reports")
    good = [r for r in traced if r.ok]
    rows = [layer_values(r) for r in good]
    for name in EXACT_COUNTERS:
        seen = {row[name] for row in rows + [layer_values(r) for r in serial if r.ok]}
        if len(seen) > 1:
            problems.append(f"{name} does not repeat exactly: {sorted(seen)}")

    n = len(rows)
    metrics = {}
    for name in layer_values(Rep("trace")):
        unit = "s" if name.endswith((".s", "_s")) else "B" if name.endswith(".bytes") else "count"
        metrics[name] = (median(row[name] for row in rows), unit, n)

    solves = [row["spectral.lu_solve.count"] for row in rows]
    metrics["spectral.lu_solve.count_spread"] = (
        max(solves) - min(solves) if solves else math.nan, "count", n)
    svds_calls = metrics["spectral.svds.calls"][0]
    metrics["spectral.svds.fallback_frac"] = (
        metrics["spectral.svds.fallbacks"][0] / svds_calls if svds_calls else 0.0,
        "ratio", n)

    durations = [
        end - start
        for r in good
        for _, name, start, end, _ in r.trace.get("spans", [])
        if name == "spectral.resolvent_norm"
    ]
    pct, tail_s = tail(durations)
    metrics["spectral.resolvent_norm.median_s"] = (
        median(durations) if durations else 0.0, "s", len(durations))
    metrics["spectral.resolvent_norm.tail_pct"] = (
        0.0 if math.isnan(pct) else pct, "%", len(durations))
    metrics["spectral.resolvent_norm.tail_s"] = (
        0.0 if math.isnan(tail_s) else tail_s, "s", len(durations))

    used = [r.values.get("n_used", 0) for r in good]
    requested = wl["config"].get("run", {}).get("n_samples", 0)
    if wl["subcommand"] != "resolvent-scan":
        requested = 0
    metrics["diagnostics.samples_used"] = (median(used) if used else 0, "count", n)
    metrics["diagnostics.samples_requested"] = (requested, "count", n)

    traced_wall = median(r.wall_s for r in good)
    plain_wall = median(r.wall_s for r in plain if r.ok)
    metrics["traced.wall_s"] = (traced_wall, "s", n)
    metrics["tracing.overhead_s"] = (traced_wall - plain_wall, "s", n)
    one = [r for r in serial if r.ok]
    metrics["serial.wall_s"] = (median(r.wall_s for r in one), "s", len(one))
    metrics["serial.cpu_s"] = (median(r.cpu_s for r in one), "s", len(one))
    metrics["serial.spectral.lu.s"] = (
        median(_stat(r, "spectral.lu", 1) for r in one), "s", len(one))
    metrics["serial.spectral.eig.s"] = (
        median(_stat(r, "spectral.eig", 1) for r in one), "s", len(one))
    metrics["failed_frac"] = (
        sum(not r.ok for r in reps) / len(reps), "ratio", len(reps))
    return metrics, problems


# ------------------------------------------------------------- environment


def environment(seed: int, reps: list[Rep]) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (not a git checkout)"
    blas = next((r.blas for r in reps if r.blas and r.mode != "serial"), [])
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "commit": commit,
        "seed": seed,
        "machine": platform.machine(),
    }


def fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


# -------------------------------------------------------------------- main


def main(argv=None) -> int:
    workloads = load_json("workloads.json")["workloads"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: the tiny configs used by selftest.py")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "spinboson" / "cli.py").is_file():
        print(f"no spinboson sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    wl = workload(workloads[args.workload], args.size)
    ref = load_json("reference.json")[args.workload][args.size]

    workdir = prepare(wl, f"{args.workload}-{args.size}-s{args.seed}-p{os.getpid()}")
    session = Session(wl, ref, args.seed, args.seconds, workdir)

    if args.trace:
        pairs = []
        while len(pairs) < 2 or session.room_for(median(pairs)):
            t0 = time.perf_counter()
            session.run("plain")
            session.run("trace")
            pairs.append(time.perf_counter() - t0)
        session.run("serial")
        metrics, problems = per_layer(session.reps, wl)
    else:
        while not session.reps or session.room_for(median(r.wall_s for r in session.reps)):
            session.run("plain")
        while session.room_for(max((r.wall_s for r in session.setups), default=1.0)):
            session.run("setup")
        metrics = end_to_end(session.reps, session.setups)
        problems = [f"set-up-only child: {p}" for r in session.setups for p in r.problems]

    reps = session.reps
    failed = sum(not r.ok for r in reps)
    env = environment(args.seed, reps)
    print(f"workload {args.workload} ({wl['subcommand']}, size {args.size}), "
          f"seed {args.seed}, {len(reps)} child runs, {failed} failed")
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"reference report sha256 at seed {ref['seed']}: {ref['report_sha256']}")
    for i, rep in enumerate(reps + session.setups):
        print(f"  run {i} {rep.mode}: wall {rep.wall_s:.3f} s, setup {rep.setup_s:.3f} s, "
              f"cpu {rep.cpu_s:.3f} s, rss {rep.rss_mb:.1f} MB, sha256 {rep.digest[:16]}"
              + (f", FAILED: {'; '.join(rep.problems)}" if rep.problems else ""))
    for problem in problems:
        print(f"  problem: {problem}")
    for name, (value, unit, n) in metrics.items():
        print(f"{name:48s} {fmt(value):>14s} {unit:6s} (n={n})")

    correct = failed == 0 and not problems and not any(
        isinstance(v, float) and math.isnan(v) for v, _, _ in metrics.values()
    )
    if correct:
        shutil.rmtree(workdir)
    print(json.dumps({
        "correct": correct,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {
            name: {"value": None if math.isnan(value) else value, "unit": unit}
            for name, (value, unit, _) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
