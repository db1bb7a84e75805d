"""The packed Lemma 14 kernel against the scalar reference.

``LocalFilter.passes`` and ``passes_batch`` both decide Lemma 14 with
:func:`repro.features.dp_features.boxes_exceed` /
:func:`boxes_exceed_many`; :meth:`DPFeatures.exceeds_box_bound` stays
as the oracle.  These properties pin the kernel's decision to the
oracle in both directions, over geometry built to sit on the kernel's
edge cases: single-point and stationary boxes, collinear runs, boxes
that touch or cross, and thresholds set exactly to a scalar-computed
edge-to-box distance (which lands pairs in the undecided band, so the
scalar fallback decides them).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.codec import decode_row, encode_row
from repro.features.dp_features import (
    CHORD_BOXES,
    LEMMA14_BAND,
    MIN_AREA_BOXES,
    DPFeatures,
    PackedBoxes,
    boxes_exceed,
    boxes_exceed_many,
    edge_box_distances_sq,
    edges_exceed,
    extract_dp_features,
    pack_boxes,
)
from repro.geometry.distance import segment_rect_distance
from repro.geometry.point import Point
from repro.geometry.segment import OrientedBox

# A coarse grid makes collinear runs, repeated points and boxes that
# share edges or corners common; the fine floats cover general position.
grid = st.integers(min_value=0, max_value=8).map(lambda v: v / 8.0)
fine = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, width=64)
coord = st.one_of(grid, fine)
point = st.tuples(coord, coord)


@st.composite
def point_runs(draw):
    kind = draw(st.sampled_from(["free", "single", "stationary", "collinear"]))
    if kind == "single":
        return [draw(point)]
    if kind == "stationary":
        return [draw(point)] * draw(st.integers(2, 6))
    if kind == "collinear":
        x0, y0 = draw(point)
        dx, dy = draw(st.sampled_from([(1, 0), (0, 1), (1, 1), (1, -1)]))
        ts = draw(st.lists(grid, min_size=2, max_size=8))
        return [(x0 + t * dx, y0 + t * dy) for t in ts]
    return draw(st.lists(point, min_size=1, max_size=14))


@st.composite
def features(draw):
    return extract_dp_features(
        draw(point_runs()),
        draw(st.sampled_from([0.0, 0.02, 0.1, 0.3])),
        box_mode=draw(st.sampled_from([CHORD_BOXES, MIN_AREA_BOXES])),
    )


@st.composite
def threshold_for(draw, a: DPFeatures, b: DPFeatures) -> float:
    """A random threshold, or one set exactly to a scalar distance
    between an edge of ``a`` and a box (or its envelope) of ``b``."""
    kind = draw(st.sampled_from(["free", "zero", "box", "envelope"]))
    if kind == "free":
        return draw(st.floats(min_value=0.0, max_value=1.5, allow_nan=False))
    if kind == "zero":
        return 0.0
    i = draw(st.integers(0, len(a.boxes) - 1))
    k = draw(st.integers(0, 3))
    j = draw(st.integers(0, len(b.boxes) - 1))
    e0, e1 = a.boxes[i].edges()[k]
    if kind == "box":
        return b.boxes[j].distance_to_segment(e0, e1)
    return segment_rect_distance(e0, e1, b.envelopes[j])


@st.composite
def feature_pairs(draw):
    a = draw(features())
    b = draw(features())
    source, target = draw(st.sampled_from([(a, b), (b, a)]))
    return a, b, draw(threshold_for(source, target))


@settings(max_examples=300, deadline=None)
@given(features(), st.lists(st.tuples(point, point), min_size=1, max_size=6))
def test_kernel_distance_matches_scalar(f, segments):
    """The box-frame distance stays well inside the undecided band of
    the scalar world-frame one, which is what makes a decision outside
    the band safe."""
    edges = np.array([[a[0], a[1], b[0], b[1]] for a, b in segments])
    got = np.sqrt(edge_box_distances_sq(edges, f.packed))
    for i, (a, b) in enumerate(segments):
        for j, box in enumerate(f.boxes):
            want = box.distance_to_segment(Point(*a), Point(*b))
            assert abs(got[i, j] - want) <= LEMMA14_BAND / 100


def test_segment_passing_a_corner_is_not_touching():
    """A diagonal segment whose bounding box overlaps the unit box but
    which passes outside its corner: only the segment-normal axis
    separates them."""
    box = OrientedBox(Point(0.0, 0.0), (1.0, 0.0), 1.0, 0.0, 0.0, 1.0)
    edges = np.array([[1.5, 0.9, 0.9, 1.5]])
    d2 = edge_box_distances_sq(edges, PackedBoxes(pack_boxes([box])))
    got = float(np.sqrt(d2[0, 0]))
    want = box.distance_to_segment(Point(1.5, 0.9), Point(0.9, 1.5))
    assert want > 0.2
    assert abs(got - want) <= 1e-12


@settings(max_examples=400, deadline=None)
@given(feature_pairs())
def test_kernel_matches_scalar_both_directions(case):
    a, b, eps = case
    assert edges_exceed(a, b, eps) == a.exceeds_box_bound(b, eps)
    assert edges_exceed(b, a, eps) == b.exceeds_box_bound(a, eps)
    assert boxes_exceed(a, b, eps) == (
        a.exceeds_box_bound(b, eps) or b.exceeds_box_bound(a, eps)
    )


@settings(max_examples=150, deadline=None)
@given(
    query=features(),
    candidates=st.lists(features(), min_size=1, max_size=6),
    data=st.data(),
)
def test_many_matches_scalar(query, candidates, data):
    source = data.draw(st.sampled_from(candidates))
    eps = data.draw(threshold_for(source, query))
    params = np.concatenate([pack_boxes(c.boxes) for c in candidates])
    counts = np.array([len(c.boxes) for c in candidates])
    got = boxes_exceed_many(query, params, counts, candidates.__getitem__, eps)
    want = [
        c.exceeds_box_bound(query, eps) or query.exceeds_box_bound(c, eps)
        for c in candidates
    ]
    assert got.tolist() == want


def _count_fallbacks(monkeypatch):
    calls = []
    scalar = DPFeatures.edge_near_box

    def counted(self, *args):
        calls.append(args)
        return scalar(self, *args)

    monkeypatch.setattr(DPFeatures, "edge_near_box", counted)
    return calls


def test_threshold_on_a_distance_takes_the_scalar_rule(monkeypatch):
    """A pair whose distance equals ``eps`` is decided by the scalar
    rule, not by the kernel's own rounding."""
    a = extract_dp_features([(0.0, 0.0), (1.0, 0.0)], 0.0)
    b = extract_dp_features([(0.3, 0.7), (1.3, 0.9)], 0.0)
    e0, e1 = a.boxes[0].edges()[0]
    eps = b.boxes[0].distance_to_segment(e0, e1)
    calls = _count_fallbacks(monkeypatch)
    assert edges_exceed(a, b, eps) == a.exceeds_box_bound(b, eps)
    assert calls


def test_identical_features_at_zero_threshold(monkeypatch):
    """Self-match at eps = 0: every edge lies on the other side's box,
    the computed distances are rounding-sized, so every deciding pair
    goes to the scalar rule."""
    f = extract_dp_features(
        [(116.3, 39.9), (116.31, 39.91), (116.33, 39.9), (116.35, 39.93)],
        0.002,
    )
    calls = _count_fallbacks(monkeypatch)
    assert boxes_exceed(f, f, 0.0) == f.exceeds_box_bound(f, 0.0)
    assert calls


def test_skewed_axis_always_takes_the_scalar_rule(monkeypatch):
    """A box whose axis is not a unit vector is not a rotation; the
    box-frame arithmetic does not apply, so its pairs fall back."""
    skewed = OrientedBox(Point(0.0, 0.0), (2.0, 0.0), 1.0, 0.0, 0.0, 0.5)
    b = DPFeatures(
        rep_indexes=(0, 1),
        rep_points=((0.0, 0.0), (2.0, 0.0)),
        boxes=(skewed,),
        mbr=skewed.mbr(),
    )
    a = extract_dp_features([(0.5, 2.0), (1.5, 2.5)], 0.0)
    calls = _count_fallbacks(monkeypatch)
    for eps in (0.1, 1.0, 2.0, 3.0):
        assert edges_exceed(a, b, eps) == a.exceeds_box_bound(b, eps)
    assert calls


def test_packing_is_lazy():
    """Neither feature extraction nor row decoding packs the boxes."""
    pts = [(0.0, 0.0), (0.4, 0.1), (1.0, 0.0)]
    f = extract_dp_features(pts, 0.05)
    assert f._packed is None
    _, _, decoded = decode_row(encode_row("t", pts, f))
    assert decoded._packed is None
    packed = decoded.packed
    assert decoded.packed is packed
    assert f == decoded
