"""Run one ``spinboson`` CLI command for the benchmark and record timings.

Usage: python3 bench/child.py RESULT_JSON MODE -- SUBCOMMAND [CLI ARGS...]

The command runs exactly as ``spinboson SUBCOMMAND ...`` would, from the
``src`` tree next to this directory.  The only additions: the moment the
subcommand starts (entry of ``spinboson.cli.dispatch``, after imports and
config parsing) is taken with ``time.perf_counter``, whose clock is shared
by all processes on the machine.  MODE ``plain`` adds nothing else,
``trace`` instruments the package with ``tracer.py``, and ``setup`` exits
at that moment without running the subcommand.  RESULT_JSON receives the
start moment, the trace data and the BLAS libraries loaded; the exit status
is the CLI's.
"""

from __future__ import annotations

import ctypes
import json
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

_BLAS_QUERIES = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_config64_"),
    ("openblas_get_num_threads64_", "openblas_get_config64_"),
    ("openblas_get_num_threads", "openblas_get_config"),
)


def blas_libraries() -> list[dict]:
    """OpenBLAS builds mapped into this process, with their thread counts."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for threads_sym, config_sym in _BLAS_QUERIES:
            threads = getattr(lib, threads_sym, None)
            if threads is None:
                continue
            config = getattr(lib, config_sym)
            config.restype = ctypes.c_char_p
            found.append({
                "library": Path(path).name,
                "config": config().decode(errors="replace").strip(),
                "threads": int(threads()),
            })
            break
    return found


class _SetupDone(Exception):
    pass


def main() -> int:
    result_path, mode, sep, *cli_argv = sys.argv[1:]
    if sep != "--" or mode not in ("plain", "trace", "setup"):
        raise SystemExit("usage: child.py RESULT_JSON plain|trace|setup -- SUBCOMMAND [ARGS...]")
    recorder = None
    if mode == "trace":
        import tracer

        recorder = tracer.Recorder()
        tracer.install(recorder)

    from spinboson import cli

    started = []
    dispatch = cli.dispatch

    def marked_dispatch(*args, **kwargs):
        started.append(perf_counter())
        if mode == "setup":
            raise _SetupDone
        return dispatch(*args, **kwargs)

    cli.dispatch = marked_dispatch
    try:
        code = cli.main(cli_argv)
    except _SetupDone:
        code = 0
    out = {
        "exit": code,
        "dispatch_start": started[0] if started else None,
        "blas": blas_libraries(),
    }
    if recorder is not None:
        out["trace"] = recorder.to_dict()
    Path(result_path).write_text(json.dumps(out))
    return code


if __name__ == "__main__":
    sys.exit(main())
