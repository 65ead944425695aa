"""Artifact serialization: canonical JSON, CSV grids, run manifests.

All writes are atomic (temp file in the target directory, then rename) and
deterministic.  ``jsonify`` is the one encoder of report values: checks
return complex numbers, numpy values and dataclasses as they are, and it
writes a dataclass as the dict of its fields, every complex number as an
[re, im] pair and every non-finite float as its repr string ("inf",
"-inf", "nan"), so a report is strict JSON; keys are sorted and floats
keep full repr.  The manifest ties artifacts to the exact configuration
via a content hash.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import platform
import resource
import sys
import tempfile
import time
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np


def jsonify(obj):
    """``obj`` as JSON values: see the module docstring for the encoding."""
    if is_dataclass(obj) and not isinstance(obj, type):
        obj = {f.name: getattr(obj, f.name) for f in fields(obj)}
    elif isinstance(obj, (np.ndarray, np.generic)):
        obj = obj.tolist()  # Python scalars, arrays as nested lists
    if isinstance(obj, dict):
        return {str(k): jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonify(v) for v in obj]
    if isinstance(obj, complex):
        return [jsonify(obj.real), jsonify(obj.imag)]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def canonical_json(obj) -> str:
    return json.dumps(jsonify(obj), sort_keys=True, indent=1)


def _atomic_write(path: Path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def write_json(path, obj) -> None:
    _atomic_write(Path(path), canonical_json(obj) + "\n")


def write_csv(path, header, rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _atomic_write(Path(path), buf.getvalue())


def config_hash(config_dict: dict) -> str:
    payload = json.dumps(jsonify(config_dict), sort_keys=True).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def run_manifest(config_dict: dict, wall_time: float) -> dict:
    """The manifest of a run: config hash, times, peak memory and versions.

    ``cpu_s`` is the process's user plus system CPU seconds so far, all
    threads, and ``peak_rss_mb`` its peak resident set so far (Linux
    ``ru_maxrss``, KiB, over 1024).  ``versions.blas`` is the BLAS numpy
    was built against; ``versions.scipy`` is written only when the run
    loaded scipy.
    """
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    versions = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
    }
    if "scipy" in sys.modules:
        versions["scipy"] = sys.modules["scipy"].__version__
    usage = resource.getrusage(resource.RUSAGE_SELF)
    manifest = {
        "schema_version": 1,
        "config_sha256": config_hash(config_dict),
        "wall_time_s": wall_time,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "versions": versions,
    }
    return manifest
