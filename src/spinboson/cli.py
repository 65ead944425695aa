"""Command-line entry point: validate a config, dispatch a run, emit artifacts.

Subcommands: ladder, fgr, theta-scan, g-circle, cone-check, resolvent-scan,
feasibility, verify-appendix.  Every run writes its report as JSON (grids
additionally as CSV) plus a manifest with the config hash; the exit status
is zero exactly when all checks of the run pass.  In strict mode the
paper-grade smallness windows gate the exit status; practical mode keys
off the structural checks and the practical envelopes.

A run pins every OpenBLAS in the process to one thread and parallelizes
only over ``jobs`` worker threads (``--jobs`` alone sets it, by default
the usable CPU count): the parity sectors of each ladder scale's
spectral census.  Resolvent samples run in the calling thread.  Reports are
therefore the same for any thread count; the manifest records the
budget.  Each subcommand hands the parsed model and grid
(``RunConfig.model``, ``RunConfig.field``) to the ladder, and the checks
read both back off its trace.  Every run is numpy alone, resolvent norms
included, so the one OpenBLAS pinned is numpy's.  Importing this module
before numpy also sets ``OPENBLAS_NUM_THREADS`` to 1 unless the
environment names a count, so the command line loads OpenBLAS at one
thread and never starts the worker pool the pin would leave idle; a
process that loaded numpy first keeps its BLAS as it is until the pin.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path

# OpenBLAS reads its thread count once, when numpy loads it: set here, a
# command-line process never starts the worker pool that ``pinned_blas``
# would leave idle.  A count the environment names is kept, and a process
# that loaded numpy first is left as it is.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from .constants import C_GENERIC_MIN, check_inequalities, compute_constants
from .errors import ConfigError, SpinBosonError
from .fock import ModeSet, enumerate_basis, verify_standard_estimates
from .model import (
    IM_THETA_CAP,
    CutoffLadder,
    DiscretizedField,
    ModelConfig,
    interaction_norm_bound,
    shell_norm_report,
)
from .reporting import run_manifest, write_csv, write_json
from .threads import pinned_blas, usable_cpus

SUBCOMMANDS = (
    "ladder",
    "fgr",
    "theta-scan",
    "g-circle",
    "cone-check",
    "resolvent-scan",
    "feasibility",
    "verify-appendix",
)

_MODEL_KEYS = {"e1", "lambda_uv", "mu", "g", "theta", "nu_floor", "m_cone"}
_LADDER_KEYS = {"rho0", "rho", "n_scales"}
_DISC_KEYS = {"points_per_shell", "r_max", "n_max", "uv_points_per_panel"}
_RUN_KEYS = {
    "mode",
    "seed",
    "g_list",
    "theta_list",
    "g_circle",
    "n_samples",
    "samples_per_scale",
    "c_generic",
    "trials",
    "levels",
}
# the bounds that gate cone-check (the acceptance value) and g-circle
CONE_TOL = 5e-3
G_CIRCLE_TOL = 1e-4
# above this ladder ratio every cone-chain step fails: its inner half reads
# gap_inner / bound = 10 (0.25 - 0.39 rho) / rho (``verify_cone_chain``)
CHAIN_RHO_MAX = 2.5 / 4.9


def _integer(value, name: str, lo: int | None = None) -> int:
    """``value`` if it is an integer, at least ``lo`` (booleans are not)."""
    if (
        isinstance(value, bool)
        or not isinstance(value, int)
        or (lo is not None and value < lo)
    ):
        bound = "" if lo is None else f" >= {lo}"
        raise ConfigError(f"{name} must be an integer{bound}, got {value!r}")
    return value


def _real(value, name: str, lo: float | None = None, above: bool = False) -> float:
    """``value`` as a finite float, at least ``lo`` (above it if ``above``)."""
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not abs(value) <= sys.float_info.max  # NaN, infinities, huge ints
        or (lo is not None and (value <= lo if above else value < lo))
    ):
        bound = "" if lo is None else f" {'>' if above else '>='} {lo}"
        raise ConfigError(f"{name} must be a finite number{bound}, got {value!r}")
    return float(value)


def _as_complex(value, name: str) -> complex:
    """A real number or an [re, im] pair as a complex number."""
    if isinstance(value, (list, tuple)):
        if len(value) != 2:
            raise ConfigError(f"{name}: complex values are [re, im] pairs")
        return complex(_real(value[0], name), _real(value[1], name))
    return complex(_real(value, name), 0.0)


def _complex_list(value, name: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{name} must be a list of values")
    return [_as_complex(v, name) for v in value]


def _section(doc: dict, name: str, known) -> dict:
    section = doc.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"{name} must be a JSON object")
    unknown = set(section) - set(known)
    if unknown:
        raise ConfigError(f"unknown {name} keys: {sorted(unknown)}")
    return section


@dataclass
class RunConfig:
    """Validated run configuration: the model, the grid and the run values.

    Every run value is parsed here.  ``field`` is the run's grid, which
    holds its ``CutoffLadder`` as ``field.ladder``.  ``jobs`` is no config
    key (nor hashed): it is the usable CPU count unless ``--jobs`` sets it.
    """

    model: ModelConfig
    field: DiscretizedField
    mode: str
    seed: int
    jobs: int
    g_list: list
    theta_list: list
    g_circle: dict
    n_samples: int
    samples_per_scale: int
    c_generic: float
    trials: int
    levels: tuple

    def identity(self) -> dict:
        """The parsed run the manifest hashes: every value but ``jobs``.

        The grid enters with its defaults resolved, so two documents that
        parse to the same run, such as one without ``run.seed`` and the same
        one with ``--seed 0``, hash alike.
        """
        grid = self.field
        run = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "jobs"}
        run["field"] = {
            "ladder": grid.ladder,
            **{key: getattr(grid, key) for key in ("n_scales", *sorted(_DISC_KEYS))},
        }
        return run


def parse_config(text: str, **run) -> RunConfig:
    """Parse and fully validate a JSON run configuration.

    Unknown keys are rejected, and every value is converted and
    range-checked here, the model, ladder and grid invariants through the
    domain constructors (the run's one grid is built here), so a bad
    document fails with a message naming the violated constraint before
    any work starts.  The list lengths and the circle's sample count are
    checked by the scan that uses them.  ``run`` (the command line's
    ``--seed`` and ``--mode``) is written into the document's run section
    first, so it is validated like it.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"configuration is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("configuration must be a JSON object")
    known_top = {"schema_version", "model", "ladder", "discretization", "run"}
    unknown = set(doc) - known_top
    if unknown:
        raise ConfigError(f"unknown top-level keys: {sorted(unknown)}")
    model_doc = _section(doc, "model", _MODEL_KEYS)
    ladder_doc = _section(doc, "ladder", _LADDER_KEYS)
    disc_doc = _section(doc, "discretization", _DISC_KEYS)
    if run:
        doc["run"] = {**_section(doc, "run", _RUN_KEYS), **run}
    run_doc = _section(doc, "run", _RUN_KEYS)

    def real(section, key, default, lo=None, above=False):
        return _real(section.get(key, default), key, lo, above)

    def integer(section, key, default, lo=None):
        return _integer(section.get(key, default), key, lo)

    model = ModelConfig(
        e1=real(model_doc, "e1", 1.0),
        lambda_uv=real(model_doc, "lambda_uv", 1.0),
        mu=real(model_doc, "mu", 0.25),
        g=_as_complex(model_doc.get("g", 0.05), "g"),
        theta=_as_complex(model_doc.get("theta", [0.0, 0.2]), "theta"),
        nu_floor=real(model_doc, "nu_floor", 0.1),
        m_cone=integer(model_doc, "m_cone", 4),
    )
    ladder = CutoffLadder(
        rho0=real(ladder_doc, "rho0", 0.25),
        rho=real(ladder_doc, "rho", 0.5),
        e1=model.e1,
    )
    mode = run_doc.get("mode", "practical")
    if mode not in ("practical", "strict"):
        raise ConfigError("run mode must be 'practical' or 'strict'")
    uv = disc_doc.get("uv_points_per_panel")
    g, theta = model.g, model.theta
    # an absent or empty list takes the default; only a given orbit is
    # checked here; the default steps down where up would leave the strip
    g_list = run_doc.get("g_list")
    g_list = _complex_list(g_list, "g_list") if g_list else [g, g / 2]
    theta_list = run_doc.get("theta_list")
    if theta_list:
        theta_list = _complex_list(theta_list, "theta_list")
        for t in theta_list:
            model.validate_theta(t)
    else:
        step = 0.025j if theta.imag + 0.05 < IM_THETA_CAP else -0.025j
        theta_list = [theta, theta + step, theta + 2 * step]
    circle = _section(run_doc, "g_circle", ("center", "radius", "samples"))
    levels = run_doc.get("levels", [0, 1])
    if (
        not isinstance(levels, list)
        or sorted(_integer(i, "levels", 0) for i in levels) not in ([0], [1], [0, 1])
    ):
        raise ConfigError(f"levels must list 0, 1 or both once, got {levels!r}")
    return RunConfig(
        model=model,
        field=DiscretizedField(
            ladder,
            integer(ladder_doc, "n_scales", 6),
            points_per_shell=integer(disc_doc, "points_per_shell", 8),
            r_max=real(disc_doc, "r_max", 4.0 * model.lambda_uv),
            n_max=integer(disc_doc, "n_max", 2, 0),
            uv_points_per_panel=(
                None if uv is None else _integer(uv, "uv_points_per_panel", 1)
            ),
        ),
        mode=mode,
        seed=integer(run_doc, "seed", 0, 0),
        jobs=usable_cpus(),
        g_list=g_list,
        theta_list=theta_list,
        g_circle={
            "center": _as_complex(circle.get("center", abs(g)), "center"),
            "radius": real(circle, "radius", abs(g) / 4 or 0.01, 0.0, True),
            "samples": integer(circle, "samples", 8),
        },
        n_samples=integer(run_doc, "n_samples", 200, 1),
        samples_per_scale=integer(run_doc, "samples_per_scale", 0, 0),
        c_generic=real(run_doc, "c_generic", 10.0, C_GENERIC_MIN),
        trials=integer(run_doc, "trials", 100, 1),
        levels=tuple(levels),
    )


def _proposed(rc: RunConfig) -> dict:
    """The run's (rho0, rho, |g|) in log10, as ``check_inequalities`` reads them."""
    cfg, ladder = rc.model, rc.field.ladder
    return {
        "log10_rho0": float(np.log10(ladder.rho0)),
        "log10_rho": float(np.log10(ladder.rho)),
        "log10_g": float(np.log10(abs(cfg.g))) if cfg.g != 0 else -np.inf,
    }


def _ladder_artifacts(rc: RunConfig, out: Path) -> bool:
    from .multiscale import (P4Sampler, check_p1, check_p2_p4, check_p3,
                             extrapolate_limit, run_ladder)

    cfg, samples = rc.model, rc.samples_per_scale
    p4 = P4Sampler(samples, rc.seed)
    trace = run_ladder(cfg, rc.field, levels=rc.levels, jobs=rc.jobs,
                       consumers=(p4,) if samples else ())
    report = compute_constants(
        cfg.mu, cfg.nu_floor, nu=cfg.nu, m=cfg.m_cone, c_generic=rc.c_generic
    )
    p1 = check_p1(trace, report.log10_C)
    p3 = check_p3(trace, report.log10_C)
    extrapolated = extrapolate_limit(trace)
    checks = {"p1": p1, "p3": p3}
    if samples:
        checks["p2_p4"] = check_p2_p4(trace, p4.rows)
    ok = True
    levels = [*p1["levels"].values(), *p3["levels"].values()]
    if rc.mode == "strict":
        # the smallness windows, as feasibility gates them, and the strict
        # rows of P1 and P3
        windows = check_inequalities(report, _proposed(rc), e1=cfg.e1)
        ok &= all(c["satisfied"] for c in windows)
        ok &= all(r["strict_pass"] for lv in levels for r in lv["rows"])
    for lv in levels:
        ok &= lv["all_practical_pass"]
    for rec in trace.scales:
        for data in rec.levels.values():
            ok &= data.p2_unique and data.contour_safe
    # a window sampler that stops at its guard short of the request fails
    ok &= all(len(row["samples"]) >= samples for row in p4.rows.values())
    write_json(
        out / "trace.json",
        {**trace.to_dict(), "extrapolated": extrapolated, "checks": checks},
    )
    return bool(ok)


def _fgr_artifacts(rc: RunConfig, out: Path) -> bool:
    from .diagnostics import fermi_golden_rule

    rep = fermi_golden_rule(rc.model, rc.field, rc.g_list, jobs=rc.jobs)
    write_json(out / "fgr.json", rep)
    return rep["monotone_improvement"]


def _theta_scan_artifacts(rc: RunConfig, out: Path) -> bool:
    from .diagnostics import theta_invariance_scan

    rep = theta_invariance_scan(rc.model, rc.field, rc.theta_list,
                                levels=rc.levels, jobs=rc.jobs)
    write_json(out / "theta_scan.json", rep)
    return rep.within_budget


def _g_circle_artifacts(rc: RunConfig, out: Path) -> bool:
    from .diagnostics import g_analyticity_check

    circle = rc.g_circle
    rep = g_analyticity_check(
        rc.model, rc.field, circle["center"], circle["radius"],
        n_samples=circle["samples"], levels=rc.levels, jobs=rc.jobs,
    )
    rep.budget = G_CIRCLE_TOL  # the report records the tolerance that gates it
    write_json(out / "g_circle.json", rep)
    return rep.within_budget


def _cone_check_artifacts(rc: RunConfig, out: Path) -> bool:
    from .diagnostics import spectrum_cone_check
    from .multiscale import run_ladder

    trace = run_ladder(rc.model, rc.field, levels=rc.levels, jobs=rc.jobs)
    rep = spectrum_cone_check(trace, CONE_TOL)
    write_json(out / "cone_check.json", rep)
    return rep["pass"]


def _resolvent_scan_artifacts(rc: RunConfig, out: Path) -> bool:
    from .diagnostics import resolvent_cone_bound_check
    from .multiscale import run_ladder

    trace = run_ladder(rc.model, rc.field, levels=(1,), jobs=rc.jobs)
    n_samples = rc.n_samples
    rep = resolvent_cone_bound_check(trace, n_samples, rc.seed)
    write_json(
        out / "resolvent_scan.json",
        {k: v for k, v in rep.items() if k != "rows"},
    )
    write_csv(
        out / "resolvent_scan.csv",
        ["re_z", "im_z", "lhs", "dist", "ratio"],
        [
            [r["z"].real, r["z"].imag, r["lhs"], r["dist"], r["lhs"] * r["dist"]]
            for r in rep["rows"]
        ],
    )
    # fewer usable samples than requested (sampler guard) fails the scan
    return bool(np.isfinite(rep["K"])) and 0 < rep["n_used"] == n_samples


def _feasibility_artifacts(rc: RunConfig, out: Path) -> bool:
    cfg = rc.model
    rep = compute_constants(
        cfg.mu, cfg.nu_floor, nu=cfg.nu, m=cfg.m_cone, c_generic=rc.c_generic
    )
    proposed = _proposed(rc)
    checks = check_inequalities(rep, proposed, e1=cfg.e1)
    strict_ok = all(c["satisfied"] for c in checks)
    write_json(
        out / "feasibility.json",
        {**asdict(rep), "checks": checks, "proposed": proposed,
         "strict_pass": strict_ok, "flag": None if strict_ok else "practical mode"},
    )
    return strict_ok or rc.mode == "practical"


def _verify_appendix_artifacts(rc: RunConfig, out: Path) -> bool:
    cfg = rc.model
    rng = np.random.default_rng(rc.seed)
    trials = rc.trials
    configs = [(4, 2), (6, 3), (8, 2)]
    violations = []
    total = 0
    for n_modes, n_max in configs:
        freqs = np.sort(rng.uniform(0.05, 3.0, size=n_modes))
        modes = ModeSet(freqs, np.ones(n_modes), np.zeros(n_modes, dtype=int))
        basis = enumerate_basis(modes, n_max)
        # the same stream as drawing real, then imaginary parts per trial
        z = rng.standard_normal((trials, 2, n_modes))
        reps = verify_standard_estimates(basis, z[:, 0] + 1j * z[:, 1])
        total += trials
        for i in np.nonzero(~reps["pass"])[0]:
            rep = {key: v[i].item() for key, v in reps.items()}
            violations.append({"modes": n_modes, "n_max": n_max, "rep": rep})
        bound = interaction_norm_bound(cfg, basis)
        total += 1
        if not bound["pass"]:
            violations.append({"modes": n_modes, "n_max": n_max, "rep": bound})
    # coupling norms of every infrared shell of the run's grid
    field = rc.field
    shells = [
        {"n": n, **shell_norm_report(cfg, field, n)} for n in range(field.n_scales)
    ]
    ok = not violations and all(row["pass"] for row in shells)
    write_json(
        out / "verify_appendix.json",
        {"trials": total, "violations": violations, "shells": shells, "pass": ok},
    )
    return ok


_DISPATCH = {
    "ladder": _ladder_artifacts,
    "fgr": _fgr_artifacts,
    "theta-scan": _theta_scan_artifacts,
    "g-circle": _g_circle_artifacts,
    "cone-check": _cone_check_artifacts,
    "resolvent-scan": _resolvent_scan_artifacts,
    "feasibility": _feasibility_artifacts,
    "verify-appendix": _verify_appendix_artifacts,
}


def dispatch(subcommand: str, rc: RunConfig, out_dir) -> int:
    """Run one subcommand, write its artifacts and manifest, return status.

    Each subcommand writes its reports and returns its verdict as a bool;
    the status is 0 when it passes, 1 when it fails and 2 when it stops on
    a ``SpinBosonError``, and the manifest records the verdict.  BLAS runs
    on one thread for the length of the subcommand; the previous thread
    counts are back when this returns or raises.
    """
    if subcommand not in _DISPATCH:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    out = Path(out_dir)
    t0 = time.perf_counter()
    with pinned_blas() as blas:
        try:
            ok = _DISPATCH[subcommand](rc, out)
            code, failure = (0 if ok else 1), None
        except SpinBosonError as exc:
            ok, code = False, 2
            failure = {"error": type(exc).__name__, "message": str(exc)}
    manifest = run_manifest(rc.identity(), wall_time=time.perf_counter() - t0)
    manifest.update({"kind": subcommand, "pass": ok})
    # an empty "blas" list: no OpenBLAS was found, so nothing was pinned
    manifest["threads"] = {"usable_cpus": usable_cpus(), "jobs": rc.jobs, "blas": blas}
    if failure:
        manifest["failure"] = failure
    write_json(out / "manifest.json", manifest)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="spinboson",
        description="Spectral laboratory for the dilated spin-boson model",
    )
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", type=Path, required=False)
    parser.add_argument("--out", type=Path, default=Path("out"))
    parser.add_argument("--mode", choices=("practical", "strict"), default=None)
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="worker threads (default: the usable CPU count)",
    )
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)

    text = args.config.read_text() if args.config else "{}"
    given = {"seed": args.seed, "mode": args.mode}
    try:
        rc = parse_config(text, **{k: v for k, v in given.items() if v is not None})
        if args.jobs is not None:
            rc.jobs = _integer(args.jobs, "--jobs", 1)
        rho, chain = rc.field.ladder.rho, rc.field.n_scales > 1
        if args.subcommand == "cone-check" and chain and rho > CHAIN_RHO_MAX:
            raise ConfigError(f"cone-check needs rho <= 2.5/4.9 = {CHAIN_RHO_MAX:.4f}: "
                              f"every cone-chain step fails above it; got rho = {rho}")
    except SpinBosonError as exc:  # a grid the document asks for fails too
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    code = dispatch(args.subcommand, rc, args.out)
    print(f"{args.subcommand}: {'pass' if code == 0 else 'FAIL'} (exit {code})")
    return code


if __name__ == "__main__":
    sys.exit(main())
