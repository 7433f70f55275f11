"""Property tests: a TraceSet holds arbitrary traces exactly."""

import pickle

from hypothesis import given, settings, strategies as st

from repro.geometry import Hit
from repro.traversal import NodeVisit, RayTrace, TraceSet

finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
points = st.tuples(finite, finite, finite)


@st.composite
def traces(draw):
    n = draw(st.integers(0, 30))
    visits = []
    for _ in range(n):
        is_leaf = draw(st.booleans())
        visits.append(
            NodeVisit(
                node_id=draw(st.integers(0, 10_000)),
                is_leaf=is_leaf,
                primitive_count=draw(st.integers(0, 8)) if is_leaf else 0,
            )
        )
    hit = None
    if draw(st.booleans()):
        hit = Hit(
            t=draw(st.floats(min_value=1e-6, max_value=1e6,
                             allow_nan=False)),
            primitive_id=draw(st.integers(0, 10_000)),
            point=draw(points),
            normal=draw(points),
        )
    return RayTrace(
        ray_id=draw(st.integers(0, 2**31)),
        visits=visits,
        hit=hit,
        box_tests=draw(st.integers(0, 1000)),
        primitive_tests=draw(st.integers(0, 1000)),
    )


batches = st.lists(traces(), max_size=10)


@settings(max_examples=200, deadline=None)
@given(batch=batches)
def test_views_give_back_the_traces(batch):
    restored = list(TraceSet.from_traces(batch))
    assert restored == batch
    for got, want in zip(restored, batch):
        assert type(got.ray_id) is int
        if want.hit is not None:
            assert all(type(x) is float for x in got.hit.point + got.hit.normal)


@settings(max_examples=100, deadline=None)
@given(batch=batches, cut=st.integers(0, 10))
def test_slices_keep_the_rays(batch, cut):
    traceset = TraceSet.from_traces(batch)
    head, tail = traceset[:cut], traceset[cut:]
    assert list(head) == batch[:cut]
    assert list(tail) == batch[cut:]


@settings(max_examples=100, deadline=None)
@given(batch=batches)
def test_pickle_round_trip_keeps_the_columns(batch):
    traceset = TraceSet.from_traces(batch)
    loaded = pickle.loads(pickle.dumps(traceset, protocol=5))
    assert loaded is not traceset
    assert loaded == traceset
    for name, column in traceset.columns().items():
        assert loaded.columns()[name].dtype == column.dtype, name
