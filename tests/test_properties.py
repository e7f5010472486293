"""The streaming contract of ``CdeModel`` as properties of random streams:
a rejected row changes nothing, and a snapshot resumes exactly."""

import math
import warnings

import pytest
from hypothesis import given
from hypothesis import strategies as st

from covermodels import BadConfig, CdeConfig, CdeModel, OutOfSupport

COMPONENTS = [("tree",), ("nw", "tree")]
KINDS = ["ok", "ok", "ok", "nan_x", "nan_y", "y_outside"]
unit = st.floats(0.0, 1.0)
streams = st.lists(st.tuples(st.sampled_from(KINDS), unit, unit), min_size=1, max_size=40)


def make(components):
    cfg = CdeConfig(
        x_lower=[0.0],
        x_upper=[1.0],
        y_lower=[0.0],
        y_upper=[1.0],
        components=components,
        tree_max_depth=8,
    )
    return CdeModel(cfg)


def row(kind, x, y):
    if kind == "nan_x":
        x = math.nan
    elif kind == "nan_y":
        y = math.nan
    elif kind == "y_outside":
        y += 1.5  # outside the tree's box: only a tree-only model rejects it
    return [x], [y]


def rejected(kind, components):
    return kind.startswith("nan") or (kind == "y_outside" and "nw" not in components)


def feed(model, stream):
    """Absorb a stream; returns each row's log predictive, None where
    the row was rejected."""
    out = []
    with warnings.catch_warnings():
        # the mixture warns once when its tree skips a y outside its box
        warnings.simplefilter("ignore", RuntimeWarning)
        for kind, x, y in stream:
            try:
                out.append(model.absorb(*row(kind, x, y)))
            except (BadConfig, OutOfSupport):
                out.append(None)
    return out


@given(st.sampled_from(COMPONENTS), streams)
def test_rejected_rows_leave_the_snapshot_unchanged(components, stream):
    model = make(components)
    for kind, x, y in stream:
        if rejected(kind, components):
            before = model.to_text()
            with pytest.raises((BadConfig, OutOfSupport)):
                model.absorb(*row(kind, x, y))
            assert model.to_text() == before
        else:
            assert feed(model, [(kind, x, y)]) != [None]


@given(st.sampled_from(COMPONENTS), streams, st.integers(0, 40))
def test_resume_from_a_snapshot_matches_continuing(components, stream, cut):
    cut = min(cut, len(stream))
    model = make(components)
    feed(model, stream[:cut])
    resumed = CdeModel.from_text(model.to_text())
    assert feed(resumed, stream[cut:]) == feed(model, stream[cut:])
    assert resumed.to_text() == model.to_text()
    assert resumed.posterior.log_evidence == model.posterior.log_evidence
