"""Deterministic report emission."""
import json
import math

import numpy as np
import pytest

from spinorlab.report import emit_human, emit_structured, format_float


def test_float_format_round_trips():
    values = [0.1, 1.0 / 3.0, math.pi, 1e-300, 12345.6789, -0.0, 2.0,
              5e-324, 1.7976931348623157e308]
    for v in values:
        assert float(format_float(v)) == v


def test_non_finite_rejected():
    with pytest.raises(ValueError):
        format_float(float("nan"))
    with pytest.raises(ValueError):
        format_float(float("inf"))


def test_structured_output_is_json_with_sorted_keys():
    doc = {"b": 1, "a": [1.5, None, True], "c": {"y": "text", "x": -0.0}}
    text = emit_structured(doc)
    parsed = json.loads(text)
    assert parsed == {"b": 1, "a": [1.5, None, True], "c": {"y": "text", "x": -0.0}}
    assert text.index('"a"') < text.index('"b"') < text.index('"c"')


def test_numpy_values_serialized():
    doc = {"arr": np.array([1.0, 2.0]), "n": np.int64(3),
           "x": np.float64(0.25), "flag": np.bool_(True)}
    parsed = json.loads(emit_structured(doc))
    assert parsed == {"arr": [1.0, 2.0], "n": 3, "x": 0.25, "flag": True}


def test_complex_serialized_as_pair():
    parsed = json.loads(emit_structured({"z": 1 - 2j}))
    assert parsed["z"] == [1.0, -2.0]


def test_emission_is_deterministic():
    doc = {"values": [math.pi, math.e], "nested": {"k": 1e-17}}
    assert emit_structured(doc) == emit_structured(doc)


def test_unknown_type_rejected():
    with pytest.raises(TypeError):
        emit_structured({"bad": object()})


def test_human_format_contains_annotation_strings():
    report = {
        "lounesto": {"index": 6, "annotation": "Not well defined"},
        "findings": [],
    }
    text = emit_human(report)
    assert "Not well defined" in text
    assert "[lounesto]" in text


def test_human_format_recurses_into_lists_of_records():
    report = {"verify": {"all_passed": True,
                         "properties": [{"name": "klein-gordon", "worst": 0.5}],
                         "seeds": [1, 2]}}
    text = emit_human(report)
    assert "  properties.0.name: klein-gordon\n" in text
    assert "  properties.0.worst: 0.5\n" in text
    assert "  seeds: [1, 2]\n" in text
    assert "{'" not in text
