"""The package surface that the benchmark in perfbench/ relies on.

perfbench/tracer.py wraps the package's public functions by name, and
its self-checks expect exact call counts of two known inputs
(perfbench/harness.py).  These tests read both files and run the same
counts, so a change that breaks the benchmark fails here first.
"""

import importlib
import math
import pathlib

import pytest

import fresnelpseudo as fp

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracer"), importlib.import_module("harness")


def traced(bench, call):
    tracer = bench[0].Tracer().install()
    try:
        call()
    finally:
        tracer.uninstall()
    return tracer


def test_every_traced_name_exists(bench):
    layers = bench[0].LAYERS
    missing = [
        f"{mod}.{name}"
        for mod, names in layers.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"fresnelpseudo.{mod}"), name, None))
    ]
    assert missing == []


def test_semi_infinite_two_level_measure_counts(bench):
    harness = bench[1]
    event = fp.CylinderEvent((1.0, 2.0), ((-0.7, 0.7), (0.1, math.inf)))
    tracer = traced(bench, lambda: fp.cylinder_measure(event, 3.0, 0.4))
    got = [
        tracer.count_under("measure.box_kernel_integral", "measure.cylinder_measure"),
        tracer.count_under("special.airy_cdf_tail", "measure.cylinder_measure"),
    ]
    assert got == [harness.SEMI_2LEVEL_BOX_INTEGRALS, harness.SEMI_2LEVEL_TAILS]


def test_direct_integral_point_density_calls(bench):
    harness = bench[1]
    spec = fp.SubordinationSpec(3.0, 0.5, 0.3)
    tracer = traced(bench, lambda: fp.subordinated_density_quadrature(1.0, spec, 1.0))
    got = tracer.count_under("density.density", "subordination.subordinated_density_quadrature")
    assert got == harness.DIRECT_POINT_DENSITY_CALLS
