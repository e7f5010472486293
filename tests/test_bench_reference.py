"""The benchmark's stored reference outputs, checked in the test suite.

``bench/workload.py`` checks its warm-up streams against ``REFERENCE``
at ``REF_RTOL`` before every timed pass. Loading that module here runs
the same reference streams against the package under test, so a change
to the numerics that moves them fails the suite, not only the
benchmark.
"""

import importlib.util
import math
from pathlib import Path

import pytest

WORKLOAD = Path(__file__).resolve().parent.parent / "bench" / "workload.py"


@pytest.fixture(scope="module")
def workload():
    spec = importlib.util.spec_from_file_location("bench_workload", WORKLOAD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("kind", ["cde", "vmm"])
def test_reference_streams_reproduce_the_stored_values(workload, kind):
    got = {"cde": workload.cde_reference, "vmm": workload.vmm_reference}[kind]()
    want = workload.REFERENCE[kind]
    assert set(got) == set(want)
    for key, value in want.items():
        assert math.isclose(got[key], value, rel_tol=workload.REF_RTOL), (kind, key, got[key])
