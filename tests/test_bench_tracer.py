"""The benchmark's tracer wraps package methods by name.

``bench/tracer.py`` replaces each ``(owner, attribute)`` of its
``_layers()`` with a timing wrapper, reading the original from
``owner.__dict__``. Loading that list here makes a rename or a move of a
wrapped method fail the suite, not only a traced benchmark run.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_every_wrapped_name_is_defined_on_its_owner():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    layers = tracer._layers()
    assert layers
    for owner, attr, layer in layers:
        assert attr in owner.__dict__, (getattr(owner, "__name__", owner), attr, layer)
