"""Rewrite the golden reports: python tests/golden/update.py

Runs every ``spinboson`` subcommand on the tiny config ``tiny.json`` at
``--seed 0 --jobs 1``, in this process, and stores its reports (the
manifest aside) under ``<subcommand>/`` next to this file.
``status.json`` records each exit status and the numpy and BLAS that
wrote the files; ``tests/test_golden.py`` compares bytes only where they
match.  A change to the files shows, in the diff, what a change to the
program moved.
"""

from __future__ import annotations

import contextlib
import ctypes
import io
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

from spinboson import cli, threads  # noqa: E402  (after the path insert)

CONFIG = HERE / "tiny.json"
STATUS = HERE / "status.json"
ARGS = ("--seed", "0", "--jobs", "1")
_CONFIG_SYMBOLS = (
    "scipy_openblas_get_config64_", "scipy_openblas_get_config",
    "openblas_get_config64_", "openblas_get_config",
)


def blas_identity() -> dict:
    """numpy's version, its BLAS, and the configuration each OpenBLAS reports.

    An OpenBLAS built for several CPUs picks its kernels, and so its
    rounding, at run time; the configuration string names the one chosen.
    """
    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    cores = []
    for path in threads._mapped_openblas():
        lib = ctypes.CDLL(path)
        for name in _CONFIG_SYMBOLS:
            get = getattr(lib, name, None)
            if get is not None:
                get.restype = ctypes.c_char_p
                cores.append(get().decode())
                break
    return {
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "openblas_config": cores,
    }


def run_reports(out: Path) -> dict:
    """Run every subcommand into ``out/<subcommand>``; returns the exit statuses."""
    codes = {}
    for sub in cli.SUBCOMMANDS:
        with contextlib.redirect_stdout(io.StringIO()):
            codes[sub] = cli.main(
                [sub, "--config", str(CONFIG), "--out", str(out / sub), *ARGS]
            )
        (out / sub / "manifest.json").unlink()
    return codes


def main() -> None:
    for sub in cli.SUBCOMMANDS:
        shutil.rmtree(HERE / sub, ignore_errors=True)
    codes = run_reports(HERE)
    status = {"exit": codes, "versions": blas_identity()}
    STATUS.write_text(json.dumps(status, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(codes)} subcommands' reports under {HERE}")


if __name__ == "__main__":
    main()
