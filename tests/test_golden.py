"""Golden reports: every subcommand's reports on the tiny config, pinned.

``tests/golden/`` holds the reports (manifests aside) of all eight
subcommands on ``tests/golden/tiny.json`` at ``--seed 0 --jobs 1`` and
their exit statuses; ``python tests/golden/update.py`` rewrites them.  A
rerun must match: keys, integers, bools, strings, nulls and exit statuses
exactly, floats within ``DEFAULT`` (1e-12 relative plus 1e-13) unless
``TOLERANCES`` lists their field.  Where numpy and its OpenBLAS are the
ones that wrote the files, the bytes must match too.
"""

import csv
import io
import json
from pathlib import Path

import pytest

from golden.update import STATUS, blas_identity, run_reports
from spinboson.cli import SUBCOMMANDS

GOLDEN = Path(__file__).resolve().parent / "golden"
# Report values derive from eigenvalues of operators of norm about 1, whose
# rounding is absolute: another BLAS kernel (OPENBLAS_CORETYPE Haswell,
# Sandybridge or Zen against SkylakeX) moved them by up to 6.4e-15, so a
# small value such as an imaginary part of 3e-5, a residual near 1e-15,
# ``refinement_delta`` or theta-scan's ``budget`` gets the absolute part.
DEFAULT = (1e-12, 1e-13)
# field name -> (relative, absolute, reason) for values that divide that
# rounding by a small number; a float passes when
# |a - b| <= relative * max(|a|, |b|) + absolute
TOLERANCES = {
    "taylor_estimates": (1e-12, 1e-8, "the m-th estimate divides a Fourier "
                         "mean by r^m, r = 0.0125 on this config: 9.3e-10 "
                         "moved at m = 3"),
    "im_ratio": (1e-12, 1e-11, "Im lambda over |g|^2, |g| down to 0.025"),
    "rel_error_vs_coefficient": (1e-12, 1e-11, "Im lambda over |g|^2, |g| "
                                 "down to 0.025: 4.4e-13 moved"),
    "pt2_rel_disagreement": (1e-12, 1e-11, "Im lambda over its own size, "
                             "about 7e-4 at |g| = 0.025: 4.5e-13 moved"),
    "max_pairwise": (1e-12, 1e-11, "g-circle divides its residuals by "
                     "|lambda|, about 2e-3 for level 0: 1.4e-13 moved"),
    "fitted_ratio": (1e-12, 1e-9, "a fit to ratios of P1 and P3 gaps near "
                     "1e-5: 8.4e-11 moved"),
}


def _tolerance(key: str) -> tuple[float, float]:
    return TOLERANCES[key][:2] if key in TOLERANCES else DEFAULT


def compare(expected, actual, where: str, key: str = "") -> list[str]:
    """Mismatches of ``actual`` against ``expected``, each naming its place.

    ``where`` is the file and path so far; ``key`` is the nearest dict key
    above a value that is no level or scale number, and picks its float
    tolerance.
    """
    if isinstance(expected, dict) and isinstance(actual, dict):
        out = [f"{where}: dropped key {k!r}" for k in expected.keys() - actual.keys()]
        out += [f"{where}: added key {k!r}" for k in actual.keys() - expected.keys()]
        for k in sorted(expected.keys() & actual.keys()):
            field = key if k.isdigit() else k
            out += compare(expected[k], actual[k], f"{where}.{k}", field)
        return out
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{where}: length {len(actual)}, expected {len(expected)}"]
        out = []
        for i, (e, a) in enumerate(zip(expected, actual)):
            out += compare(e, a, f"{where}[{i}]", key)
        return out
    if type(expected) is float and type(actual) is float:
        rel, abs_ = _tolerance(key)
        diff = abs(actual - expected)
        if actual == expected or diff <= rel * max(abs(expected), abs(actual)) + abs_:
            return []
        return [f"{where}: {actual!r}, expected {expected!r} "
                f"(|diff| {diff:.3e}; tolerance {rel:g} relative + {abs_:g})"]
    if type(expected) is not type(actual) or expected != actual:
        return [f"{where}: {actual!r}, expected {expected!r}"]
    return []


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def load(path: Path):
    """A report as values: JSON as parsed, a CSV as one dict per row."""
    if path.suffix == ".json":
        return json.loads(path.read_text())
    rows = list(csv.reader(io.StringIO(path.read_text())))
    return [dict(zip(rows[0], map(_cell, row))) for row in rows[1:]]


def compare_dirs(golden: Path, fresh: Path, label: str) -> list[str]:
    names = sorted(p.name for p in golden.iterdir())
    made = sorted(p.name for p in fresh.iterdir())
    if names != made:
        return [f"{label}: report files {made}, expected {names}"]
    out = []
    for name in names:
        out += compare(load(golden / name), load(fresh / name), f"{label}/{name}")
    return out


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    return out, run_reports(out)


@pytest.mark.parametrize("subcommand", SUBCOMMANDS)
def test_reports_match_golden(fresh, subcommand):
    out, codes = fresh
    status = json.loads(STATUS.read_text())
    assert codes[subcommand] == status["exit"][subcommand]
    mismatches = compare_dirs(GOLDEN / subcommand, out / subcommand, subcommand)
    assert not mismatches, "\n".join(mismatches)
    if status["versions"] == blas_identity():
        for path in sorted((GOLDEN / subcommand).iterdir()):
            fresh_bytes = (out / subcommand / path.name).read_bytes()
            assert fresh_bytes == path.read_bytes(), f"{subcommand}/{path.name}"


class TestCompareHasTeeth:
    """The comparison fails on a planted change and names its place."""

    @staticmethod
    def trace():
        return load(GOLDEN / "ladder" / "trace.json")

    def test_lambda_moved_by_1e_9(self):
        moved = self.trace()
        lam = moved["scales"][2]["levels"]["1"]["lambda"]
        lam[0] += 1e-9
        (msg,) = compare(self.trace(), moved, "ladder/trace.json")
        assert msg.startswith("ladder/trace.json.scales[2].levels.1.lambda[0]: ")

    def test_added_and_dropped_keys(self):
        added, dropped = self.trace(), self.trace()
        added["scales"][0]["levels"]["0"]["cond"] = 1.0
        del dropped["checks"]["p1"]
        assert compare(self.trace(), added, "t") == [
            "t.scales[0].levels.0: added key 'cond'"
        ]
        assert compare(self.trace(), dropped, "t") == ["t.checks: dropped key 'p1'"]

    def test_types_and_exact_values(self):
        assert compare({"n": 3}, {"n": 3.0}, "t")  # an int is no float
        assert compare({"ok": True}, {"ok": 1}, "t")
        assert compare({"x": "inf"}, {"x": "nan"}, "t")
        assert compare({"x": None}, {"x": 0.0}, "t")
        assert not compare({"residual": 1e-15}, {"residual": 5e-15}, "t")
        assert compare({"residual": 1e-15}, {"residual": 2e-13}, "t")
        assert compare({"gap": 1.0}, {"gap": 1.0 + 1e-11}, "t")

    def test_csv_cells_are_compared(self, tmp_path):
        golden = GOLDEN / "resolvent-scan"
        for path in golden.iterdir():
            text = path.read_text()
            if path.suffix == ".csv":
                header, first, *rest = text.splitlines()
                cells = first.split(",")
                cells[2] = repr(float(cells[2]) * (1 + 1e-9))
                text = "\n".join([header, ",".join(cells), *rest]) + "\n"
            (tmp_path / path.name).write_text(text)
        (msg,) = compare_dirs(golden, tmp_path, "resolvent-scan")
        assert msg.startswith("resolvent-scan/resolvent_scan.csv[0].lhs: ")
