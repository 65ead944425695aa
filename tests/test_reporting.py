"""The report encoder: dataclasses, complex numbers and non-finite floats."""

import json
from dataclasses import dataclass

import numpy as np
import pytest

from spinboson.reporting import canonical_json, jsonify


def strict_loads(text: str):
    """``json.loads`` that refuses the bare tokens Infinity, -Infinity and NaN."""

    def refuse(token):
        raise ValueError(f"bare {token} is not JSON")

    return json.loads(text, parse_constant=refuse)


NAN = float("nan")


@pytest.mark.parametrize(
    "python, numpy, expected",
    [
        (float("inf"), np.float64("inf"), "inf"),
        (float("-inf"), np.float64("-inf"), "-inf"),
        (NAN, np.float64("nan"), "nan"),
        (complex(1, NAN), np.complex128(complex(1, NAN)), [1.0, "nan"]),
    ],
)
def test_non_finite_values_are_strict_json(python, numpy, expected):
    text = canonical_json([python, numpy])
    assert canonical_json(python) == canonical_json(numpy)
    assert strict_loads(text) == [expected, expected]


def test_dataclass_fields_and_complex_pairs():
    @dataclass
    class Row:
        z: complex
        values: np.ndarray
        levels: dict

    row = Row(np.complex128(0.5 - 2j), np.array([1.0, np.inf]), {1: np.bool_(True)})
    assert jsonify(row) == {
        "z": [0.5, -2.0],
        "values": [1.0, "inf"],
        "levels": {"1": True},
    }
    assert jsonify([Row(1j, np.zeros(0), {})]) == [
        {"z": [0.0, 1.0], "values": [], "levels": {}}
    ]
