"""Non-finite input fails at the API boundary with a typed error.

A NaN threshold or a NaN/inf coordinate used to surface as a raw
``ValueError: cannot convert float NaN to integer`` from the XZ* cell
arithmetic.  Queries now raise :class:`QueryError` before any work, and
ingest raises :class:`GeometryError` before anything is written.
"""

from __future__ import annotations

import math

import pytest

from repro import TraSS, Trajectory
from repro.exceptions import GeometryError, QueryError
from repro.geometry.trajectory import all_finite

NAN = math.nan
INF = math.inf


@pytest.fixture(scope="module")
def engine(small_dataset, small_config):
    return TraSS.build(small_dataset[:40], small_config)


@pytest.fixture(scope="module")
def query(small_dataset):
    return small_dataset[0]


def _with_point(query, point):
    points = list(query.points)
    points[len(points) // 2] = point
    return Trajectory("bad", points)


BAD_POINTS = [(NAN, 40.0), (116.5, INF), (-INF, 40.0)]


def test_all_finite():
    assert all_finite([(0.0, 1.0), (2.0, 3.0)])
    assert all_finite([(1e308, 1e308), (1e308, 1e308)])  # sum overflows
    assert not all_finite([(0.0, NAN)])
    assert not all_finite([(INF, 0.0), (-INF, 0.0)])


class TestThreshold:
    def test_nan_threshold(self, engine, query):
        with pytest.raises(QueryError):
            engine.threshold_search(query, NAN)

    @pytest.mark.parametrize("point", BAD_POINTS)
    def test_non_finite_query(self, engine, query, point):
        with pytest.raises(QueryError):
            engine.threshold_search(_with_point(query, point), 0.01)

    def test_infinite_threshold_still_legal(self, engine, query):
        assert len(engine.threshold_search(query, INF).answers) == len(engine)


class TestTopK:
    @pytest.mark.parametrize("point", BAD_POINTS)
    def test_non_finite_query(self, engine, query, point):
        with pytest.raises(QueryError):
            engine.topk_search(_with_point(query, point), 3)


class TestBatch:
    def test_nan_threshold(self, engine, query):
        with pytest.raises(QueryError):
            engine.threshold_search_many([query, query], [0.01, NAN])

    @pytest.mark.parametrize("point", BAD_POINTS)
    def test_non_finite_query(self, engine, query, point):
        with pytest.raises(QueryError):
            engine.threshold_search_many(
                [query, _with_point(query, point)], 0.01
            )


class TestIngest:
    @pytest.mark.parametrize("point", BAD_POINTS)
    def test_add(self, small_config, query, point):
        engine = TraSS(small_config)
        with pytest.raises(GeometryError):
            engine.add(_with_point(query, point))
        assert len(engine) == 0

    def test_build(self, small_config, small_dataset):
        bad = _with_point(small_dataset[3], BAD_POINTS[0])
        data = list(small_dataset[:3]) + [bad]
        with pytest.raises(GeometryError):
            TraSS.build(data, small_config)
