"""The two resolvent-fit samplers that ``Box.sample`` replaced, kept
verbatim as oracles: P4's window sampler and the cone fit's box sampler."""

from math import pi

import numpy as np

from spinboson import Box
from spinboson.diagnostics import ARTIFACT_EXCLUSION
from spinboson.geometry import cone_contains


def sample_window_oracle(
    rng: np.random.Generator,
    window: Box,
    lam: complex,
    contour_radius: float,
    count: int,
    avoid: np.ndarray | None = None,
    avoid_radius: float = 0.0,
) -> list:
    """Stratified samples of a scale's window, denser near the contour.

    Points closer than ``avoid_radius`` to any element of ``avoid`` (the
    truncation-artifact eigenvalues) are rejected.  The P4 sampler before
    ``Box.sample``, kept verbatim as an oracle; its guards (100 and 200
    draws per point) are lower than ``Box.sample``'s.
    """

    def ok(z: complex) -> bool:
        if not window.contains(z):
            return False
        if avoid is not None and len(avoid) and avoid_radius > 0.0:
            if np.min(np.abs(avoid - z)) < avoid_radius:
                return False
        return True

    out = []
    n_uniform = max(1, int(0.6 * count))
    guard = 0
    while len(out) < n_uniform and guard < 100 * count:
        guard += 1
        z = complex(
            rng.uniform(window.level - window.half_width,
                        window.level + window.half_width),
            rng.uniform(window.lo, window.hi),
        )
        if ok(z) and abs(z - lam) > 0.25 * contour_radius:
            out.append(z)
    while len(out) < count and guard < 200 * count:
        guard += 1
        radius = contour_radius * rng.uniform(1.5, 6.0)
        z = lam + radius * np.exp(2j * np.pi * rng.uniform())
        if ok(z):
            out.append(z)
    return out


def cone_sampler_oracle(
    rng: np.random.Generator, box: Box, cone_forbidden, lam1: complex, cfg,
    starved: np.ndarray, n_samples: int,
) -> tuple[list, int, int]:
    """The samples and skip counts (forbidden, artifact) of
    ``resolvent_cone_bound_check`` before ``Box.sample``: its inline
    two-phase loop, verbatim."""

    def near_artifact(z: complex) -> bool:
        return len(starved) > 0 and bool(
            np.min(np.abs(starved - z)) < ARTIFACT_EXCLUSION
        )

    samples = []
    skipped_forbidden = 0
    skipped_artifact = 0
    n_uniform = int(0.7 * n_samples)
    guard = 0
    while len(samples) < n_uniform and guard < 400 * n_samples:
        guard += 1
        z = complex(
            rng.uniform(box.level - box.half_width, box.level + box.half_width),
            rng.uniform(box.lo, box.hi),
        )
        if not box.contains(z):
            continue
        if cone_contains(cone_forbidden, z):
            skipped_forbidden += 1
            continue
        if near_artifact(z):
            skipped_artifact += 1
            continue
        samples.append(z)
    while len(samples) < n_samples and guard < 800 * n_samples:
        guard += 1
        r = 10.0 ** rng.uniform(-3, np.log10(0.4 * cfg.delta))
        z = lam1 + r * np.exp(2j * pi * rng.uniform())
        if not box.contains(z) or cone_contains(cone_forbidden, z):
            skipped_forbidden += 1
            continue
        if near_artifact(z):
            skipped_artifact += 1
            continue
        samples.append(z)
    return samples, skipped_forbidden, skipped_artifact
