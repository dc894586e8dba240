"""JSON payload construction: rounding, key order, label mapping."""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

import hyperlap as hl
from hyperlap import report


class TestJsonable:
    def test_scalars(self):
        assert report.jsonable(True) is True
        assert report.jsonable(np.int64(3)) == 3
        assert isinstance(report.jsonable(np.int64(3)), int)
        assert report.jsonable(np.float64(0.25)) == 0.25

    def test_rounding_to_ten_places(self):
        assert report.jsonable(1.23456789012345) == 1.2345678901
        assert report.jsonable(-0.0) == 0.0
        assert math.copysign(1.0, report.jsonable(-0.0)) == 1.0

    def test_non_finite_becomes_null(self):
        assert report.jsonable(float("nan")) is None
        assert report.jsonable(float("inf")) is None

    def test_fraction(self):
        assert report.jsonable(Fraction(2, 3)) == {
            "numerator": 2,
            "denominator": 3,
            "value": 0.6666666667,
        }

    def test_containers(self):
        got = report.jsonable({"a": np.array([1.0, 2.0]), "b": (1, 2)})
        assert got == {"a": [1.0, 2.0], "b": [1, 2]}

    def test_dumps_round_trips_through_json(self):
        text = report.dumps({"x": np.float64(1.5), "y": [Fraction(1, 2)]})
        assert text.endswith("\n")
        assert json.loads(text) == {
            "x": 1.5,
            "y": [{"numerator": 1, "denominator": 2, "value": 0.5}],
        }


def test_spectrum_payload_golden(k2):
    payload = report.spectrum_payload(k2, "unit")
    assert report.dumps(payload) == (
        "{\n"
        '  "input": "unit",\n'
        '  "n": 2,\n'
        '  "m": 1,\n'
        '  "k_min": 2,\n'
        '  "k_max": 2,\n'
        '  "connected": true,\n'
        '  "eigenvalues": [\n'
        "    0.0,\n"
        "    2.0\n"
        "  ],\n"
        '  "lambda_2": 2.0,\n'
        '  "lambda_n": 2.0\n'
        "}\n"
    )


def test_spectrum_payload_single_vertex():
    h = hl.Hypergraph.from_edges([], n=1)
    payload = report.spectrum_payload(h, "unit")
    assert payload["lambda_2"] is None and payload["lambda_n"] is None
    assert payload["connected"] is True


def test_bounds_payload_is_bare_list(triangle):
    payload = report.bounds_payload(triangle)
    assert isinstance(payload, list)
    assert [entry["name"] for entry in payload] == [
        "twice_max_laplacian_degree",
        "adjacent_laplacian_degree_sum",
        "zhu_uniform",
        "zhu_nonuniform",
        "zhu_nonuniform_weighted",
    ]
    for entry in payload:
        assert set(entry) == {"name", "value", "lambda_n", "slack", "holds", "witness"}
        assert entry["holds"] is True


def test_witnesses_use_label_space():
    h = hl.Hypergraph.from_edges([(0, 1), (1, 2)], n=3, labels=("p", "q", "r"))
    payload = report.bounds_payload(h)
    pair = next(e for e in payload if e["name"] == "adjacent_laplacian_degree_sum")
    assert pair["witness"] == ["p", "q"]

    summary = hl.connectivity_summary(h)
    fields = report.summary_payload(h, summary, "unit")
    assert all(isinstance(v, str) for v in fields["max_cut_witness"])
    assert all(isinstance(v, str) for v in fields["iso_witness"])


def test_cut_payload_fields(g_uniform_cycle):
    rep = hl.boundary_sandwich(g_uniform_cycle, [0, 3])
    payload = report.cut_payload(g_uniform_cycle, rep, "unit")
    assert payload["subset"] == ["0", "3"]
    assert payload["boundary_size"] == 4
    assert len(payload["boundary_edges"]) == 4


def test_sweep_payload_ratio_is_exact(path4):
    subset, rep = hl.fiedler_sweep(path4)
    payload = report.sweep_payload(path4, subset, rep, "unit")
    assert report.jsonable(payload)["ratio"] == {
        "numerator": 1,
        "denominator": 2,
        "value": 0.5,
    }


def test_verify_payload_shape():
    rep = hl.verify_instances(
        hl.random_battery(n=5, m=3, k_min=2, k_max=3, count=4, seed=2),
        source="unit",
    )
    payload = report.verify_payload(rep)
    assert payload["input"] == "unit"
    assert payload["instances"] == 4
    assert payload["passed"] is True
    assert all(c["checked"] == 4 for c in payload["hard_checks"])
    assert {r["name"] for r in payload["recorded"]} >= {
        "zhu_nonuniform_distinct",
        "maxcut_kmax_bound",
    }


def test_analysis_payload_contents(g_overlap_heavy):
    rep = hl.verify_instances([("f", g_overlap_heavy)], source="f")
    summary = hl.connectivity_summary(g_overlap_heavy)
    payload = report.analysis_payload(g_overlap_heavy, "f", rep, summary)
    assert payload["passed"] is True
    assert payload["cuts"]["max_cut"] == summary.max_cut
    names = [v["name"] for v in payload["violations"]]
    assert "edge_degree_sum_exceeded" in names  # lambda_n > every edge sum
    assert len(payload["spectrum"]) == 5


def test_analysis_payload_edgeless():
    h = hl.Hypergraph.from_edges([], n=2)
    rep = hl.verify_instances([("e", h)], source="e")
    payload = report.analysis_payload(h, "e", rep, None)
    assert payload["cuts"] is None
    assert payload["violations"] == []
