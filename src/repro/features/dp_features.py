"""DP features: representative points plus covering boxes (Section IV-D).

``T.P`` is the Douglas-Peucker representative point list and ``T.B``
the list of boxes covering the raw points between consecutive
representative points, chords included.  Boxes are chord-aligned
(:class:`repro.geometry.segment.OrientedBox` — "not necessarily
parallel to the coordinate axis"), which keeps them tight around long
diagonal runs.

Soundness contract used by Lemmas 13-14: every raw point of ``T`` lies
inside the union of ``T.B``, and every edge of each box carries at
least one raw point of its run (the boxes are tight).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import GeometryError
from repro.features.douglas_peucker import douglas_peucker
from repro.geometry.mbr import MBR
from repro.geometry.point import Point
from repro.geometry.segment import OrientedBox

PointTuple = Tuple[float, float]


@dataclass(frozen=True)
class DPFeatures:
    """Representative features of one trajectory.

    ``rep_indexes`` are positions into the raw point array (the
    ``dp-points`` column of Table I); ``boxes`` holds one covering box
    per consecutive representative pair (the ``dp-mbrs`` column).
    A single-point trajectory has one representative point and one
    degenerate box.
    """

    rep_indexes: Tuple[int, ...]
    rep_points: Tuple[PointTuple, ...]
    boxes: Tuple[OrientedBox, ...]
    mbr: MBR
    #: axis-aligned envelope per box; cheap prefilter for the exact
    #: rotated-frame tests (distance to an envelope lower-bounds the
    #: distance to its box, so envelope-based rejections are sound)
    envelopes: Tuple[MBR, ...] = ()
    #: the boxes packed for the Lemma 14 kernel; built on first use by
    #: :attr:`packed`, so building and decoding never pay for it
    _packed: Optional["PackedBoxes"] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if len(self.envelopes) != len(self.boxes):
            object.__setattr__(
                self, "envelopes", tuple(box.mbr() for box in self.boxes)
            )

    @property
    def packed(self) -> "PackedBoxes":
        """The boxes as :class:`PackedBoxes` (built once, cached)."""
        packed = self._packed
        if packed is None:
            packed = PackedBoxes(pack_boxes(self.boxes))
            object.__setattr__(self, "_packed", packed)
        return packed

    @property
    def num_rep_points(self) -> int:
        return len(self.rep_points)

    @property
    def num_boxes(self) -> int:
        return len(self.boxes)

    # ------------------------------------------------------------------
    def point_to_boxes_distance(self, x: float, y: float) -> float:
        """``d(p, T.B)`` — distance from a point to the box union.

        The minimum over boxes; this lower-bounds the distance from the
        point to every raw point of the trajectory (Lemma 13's bound).
        Envelope distances gate the exact rotated-frame test: a box
        whose envelope is already farther than the best candidate can
        never improve the minimum.
        """
        best = math.inf
        for box, envelope in zip(self.boxes, self.envelopes):
            if envelope.distance_to_point(x, y) >= best:
                continue
            d = box.distance_to_point(x, y)
            if d < best:
                best = d
                if best == 0.0:
                    break
        return best

    def point_exceeds_boxes(self, x: float, y: float, eps: float) -> bool:
        """True iff ``d((x, y), T.B) > eps`` — the Lemma 13 decision.

        Cheaper than :meth:`point_to_boxes_distance` because any box
        within ``eps`` ends the scan, and envelopes gate the exact test.
        """
        for box, envelope in zip(self.boxes, self.envelopes):
            if envelope.distance_to_point(x, y) > eps:
                continue
            if box.distance_to_point(x, y) <= eps:
                return False
        return True

    def segment_to_boxes_distance(self, a: Point, b: Point) -> float:
        """Minimum distance from segment ``a-b`` to the box union."""
        from repro.geometry.distance import segment_rect_distance

        best = math.inf
        for box, envelope in zip(self.boxes, self.envelopes):
            if segment_rect_distance(a, b, envelope) >= best:
                continue
            d = box.distance_to_segment(a, b)
            if d < best:
                best = d
                if best == 0.0:
                    break
        return best

    def _segment_exceeds_boxes(self, a: Point, b: Point, eps: float) -> bool:
        """True iff ``d(segment, T.B) > eps`` with envelope gating."""
        return not any(
            _segment_near_box(a, b, box, envelope, eps)
            for box, envelope in zip(self.boxes, self.envelopes)
        )

    def edge_near_box(
        self,
        box: int,
        edge: int,
        other: "DPFeatures",
        other_box: int,
        eps: float,
    ) -> bool:
        """The scalar Lemma 14 rule for one pair: is edge ``edge`` of our
        box ``box`` within ``eps`` of ``other``'s box ``other_box``?

        The packed kernel hands the pairs it cannot decide safely (see
        :func:`edges_near_boxes`) to this method, so its decisions are
        the ones :meth:`exceeds_box_bound` would make.
        """
        e0, e1 = self.boxes[box].edges()[edge]
        return _segment_near_box(
            e0, e1, other.boxes[other_box], other.envelopes[other_box], eps
        )

    def box_lower_bound_against(self, other: "DPFeatures") -> float:
        """``max_{bbox in self.B} max_{edge in bbox} d(edge, other.B)``.

        Lemma 14's bound: each edge of each of our boxes carries a raw
        point, and that point is at least ``min_{p in edge} d(p,
        other.B)`` from every raw point of ``other``; the maximum over
        edges and boxes is therefore a sound lower bound on the
        similarity distance.
        """
        worst = 0.0
        for box in self.boxes:
            for e0, e1 in box.edges():
                d = other.segment_to_boxes_distance(e0, e1)
                if d > worst:
                    worst = d
        return worst

    def exceeds_box_bound(self, other: "DPFeatures", eps: float) -> bool:
        """True as soon as Lemma 14 proves ``f(self, other) > eps``.

        The scalar reference: queries run :func:`boxes_exceed`, whose
        decisions this method pins in the tests.  Edge/box pairs are
        screened by envelope distance first; the exact rotated test
        only runs for pairs the envelopes cannot decide.
        """
        for box in self.boxes:
            for e0, e1 in box.edges():
                if other._segment_exceeds_boxes(e0, e1, eps):
                    return True
        return False


def _segment_near_box(
    a: Point, b: Point, box: OrientedBox, envelope: MBR, eps: float
) -> bool:
    """Scalar Lemma 14 pair rule: segment ``a-b`` is within ``eps`` of
    both the box's envelope and the box itself."""
    from repro.geometry.distance import segment_rect_distance

    return (
        segment_rect_distance(a, b, envelope) <= eps
        and box.distance_to_segment(a, b) <= eps
    )


#: chord-aligned covering boxes (the paper's construction)
CHORD_BOXES = "chord"
#: minimum-area oriented rectangles (rotating calipers; never looser)
MIN_AREA_BOXES = "min_area"


def extract_dp_features(
    points: Sequence[PointTuple],
    theta: float,
    box_mode: str = CHORD_BOXES,
) -> DPFeatures:
    """Compute the DP features of a raw point sequence.

    ``theta`` is the paper's "predefined distance" (default 0.01 in the
    evaluation).  Boxes are built over the *inclusive* run between two
    consecutive representative points so that the union of boxes covers
    every raw point.

    ``box_mode`` selects the covering box construction: the paper's
    chord-aligned boxes (default), or minimum-area oriented rectangles.
    Both are tight (every side touches a raw point), so Lemmas 13-14
    stay sound; minimum-area boxes are at most as large.
    """
    if not points:
        raise GeometryError("cannot extract DP features of zero points")
    if box_mode == CHORD_BOXES:
        cover = OrientedBox.cover
    elif box_mode == MIN_AREA_BOXES:
        from repro.geometry.hull import min_area_oriented_box

        cover = min_area_oriented_box
    else:
        raise GeometryError(
            f"box_mode must be {CHORD_BOXES!r} or {MIN_AREA_BOXES!r}, "
            f"got {box_mode!r}"
        )
    rep_indexes = douglas_peucker(points, theta)
    rep_points = tuple(points[i] for i in rep_indexes)
    boxes: List[OrientedBox] = []
    if len(rep_indexes) == 1:
        boxes.append(cover([points[rep_indexes[0]]]))
    else:
        for k in range(len(rep_indexes) - 1):
            lo, hi = rep_indexes[k], rep_indexes[k + 1]
            boxes.append(cover(points[lo : hi + 1]))
    return DPFeatures(
        rep_indexes=tuple(rep_indexes),
        rep_points=rep_points,
        boxes=tuple(boxes),
        mbr=MBR.of_points(points),
    )


# ----------------------------------------------------------------------
# Vectorised kernels (the batch filter path).
#
# Oriented boxes travel as packed parameter rows in the codec's 8-float
# layout — (anchor.x, anchor.y, axis.x, axis.y, length, lo_along,
# lo_perp, hi_perp) — so a whole candidate batch's boxes live in one
# ``(b, 8)`` float64 array.  Each kernel replays the scalar method's
# arithmetic operation-for-operation, which is what keeps the batch
# filter's accept/reject decisions identical to the reference
# implementation (pinned by a property test).
# ----------------------------------------------------------------------

def pack_boxes(boxes: Sequence[OrientedBox]) -> np.ndarray:
    """Boxes as an ``(b, 8)`` parameter array in codec order."""
    out = np.empty((len(boxes), 8), dtype=np.float64)
    for i, box in enumerate(boxes):
        out[i] = (
            box.anchor.x,
            box.anchor.y,
            box.axis[0],
            box.axis[1],
            box.length,
            box.lo_along,
            box.lo_perp,
            box.hi_perp,
        )
    return out


def pack_rects(rects: Sequence[MBR]) -> np.ndarray:
    """MBRs as an ``(b, 4)`` array of (min_x, min_y, max_x, max_y)."""
    out = np.empty((len(rects), 4), dtype=np.float64)
    for i, r in enumerate(rects):
        out[i] = (r.min_x, r.min_y, r.max_x, r.max_y)
    return out


#: box-frame (along, perp) parameter columns of the four corners, in
#: :meth:`OrientedBox.corners` order
_CORNER_ALONG = np.array([5, 4, 4, 5])
_CORNER_PERP = np.array([6, 6, 7, 7])
#: the corner each edge of :meth:`OrientedBox.edges` ends at
_NEXT_CORNER = np.array([1, 2, 3, 0])


def oriented_box_corners(params: np.ndarray) -> np.ndarray:
    """World corners of packed boxes, ``(b, 4, 2)``.

    The arithmetic of :meth:`OrientedBox.corners`, in the same order,
    so every corner is bit-identical to the scalar one.
    """
    along = params[:, _CORNER_ALONG]
    perp = params[:, _CORNER_PERP]
    ux, uy = params[:, 2:3], params[:, 3:4]
    out = np.empty((len(params), 4, 2), dtype=np.float64)
    out[:, :, 0] = params[:, 0:1] + along * ux - perp * uy
    out[:, :, 1] = params[:, 1:2] + along * uy + perp * ux
    return out


def oriented_box_envelopes(params: np.ndarray) -> np.ndarray:
    """Axis-aligned envelopes of packed boxes, ``(b, 4)``.

    The min/max of :func:`oriented_box_corners`, so the values match
    ``box.mbr()`` exactly.
    """
    if len(params) == 0:
        return np.empty((0, 4), dtype=np.float64)
    corners = oriented_box_corners(params)
    return np.concatenate([corners.min(axis=1), corners.max(axis=1)], axis=1)


def point_box_distance_matrix(
    points: np.ndarray, params: np.ndarray
) -> np.ndarray:
    """Pairwise point-to-oriented-box distances, ``(m, b)``.

    :meth:`OrientedBox.distance_to_point` vectorised: same local-frame
    transform, same clamp sequence, same hypot.
    """
    ax, ay = params[:, 0], params[:, 1]
    ux, uy = params[:, 2], params[:, 3]
    length, lo_a = params[:, 4], params[:, 5]
    lo_p, hi_p = params[:, 6], params[:, 7]
    rx = points[:, 0][:, None] - ax[None, :]
    ry = points[:, 1][:, None] - ay[None, :]
    along = rx * ux + ry * uy
    perp = ry * ux - rx * uy
    da = np.maximum(np.maximum(lo_a - along, 0.0), along - length)
    dp = np.maximum(np.maximum(lo_p - perp, 0.0), perp - hi_p)
    return np.hypot(da, dp)


def point_rect_distance_matrix(
    points: np.ndarray, rects: np.ndarray
) -> np.ndarray:
    """Pairwise point-to-rectangle distances, ``(m, b)``.

    :meth:`MBR.distance_to_point` vectorised over packed rect rows.
    """
    px = points[:, 0][:, None]
    py = points[:, 1][:, None]
    dx = np.maximum(np.maximum(rects[None, :, 0] - px, 0.0), px - rects[None, :, 2])
    dy = np.maximum(np.maximum(rects[None, :, 1] - py, 0.0), py - rects[None, :, 3])
    return np.hypot(dx, dy)


def points_within_box_union(
    points: np.ndarray,
    params: np.ndarray,
    envelopes: np.ndarray,
    eps: float,
) -> np.ndarray:
    """Per (point, box): is the point within ``eps`` of the box, as
    :meth:`DPFeatures.point_exceeds_boxes` decides it?

    The scalar method skips the exact rotated-frame test for boxes whose
    envelope is already beyond ``eps``; a box therefore only counts as
    "within" when both its envelope *and* the box itself are within
    ``eps``.  Replaying that conjunction — instead of the box distance
    alone — keeps the vectorised decision identical even when rounding
    makes an envelope distance land on the far side of ``eps``.
    """
    env_d = point_rect_distance_matrix(points, envelopes)
    box_d = point_box_distance_matrix(points, params)
    return (env_d <= eps) & (box_d <= eps)


# ----------------------------------------------------------------------
# Lemma 14 kernel.
#
# Lemma 14 asks, for every edge of one side's boxes, whether some box of
# the other side lies within ``eps``; one edge with none proves the pair
# too far apart.  The kernel evaluates every (edge, box) pair at once in
# the box's own frame, where the box is the axis-aligned rectangle
# ``[lo_along, length] x [lo_perp, hi_perp]``.  Its arithmetic differs
# from the scalar rule's (world-frame segment distances, an envelope
# gate, a 1e-12 containment tolerance) by far less than the rounding
# band below, so a pair whose distance lies outside the band around
# ``eps`` gets the scalar rule's decision, and a pair inside the band is
# handed to :meth:`DPFeatures.edge_near_box`.  Decisions therefore equal
# :meth:`DPFeatures.exceeds_box_bound`'s by construction.
# ----------------------------------------------------------------------

#: half-width of the undecided band around ``eps``, relative to the
#: largest coordinate magnitude of the two sides (the scalar rule's own
#: containment tolerance is 1e-12 absolute; rounding is ~1e-15 relative)
LEMMA14_BAND = 1e-9

#: an axis whose squared norm is farther than this from 1 is not a
#: rotation; pairs against such a box always take the scalar rule
_UNIT_AXIS_TOL = 1e-12


class PackedBoxes:
    """One side's covering boxes packed for the Lemma 14 kernel.

    ``params`` are the ``(b, 8)`` codec-order rows; ``edges`` is
    ``(4b, 4)`` with row ``4 * i + k`` holding edge ``k`` of box ``i``
    as ``(x0, y0, x1, y1)`` — the corners of :meth:`OrientedBox.edges`,
    bit for bit.  ``corner_along`` / ``corner_perp`` are each box's
    corners in its own frame, ``scale`` the largest coordinate
    magnitude (it sizes the undecided band) and ``skewed`` flags boxes
    whose axis is not a unit vector.
    """

    __slots__ = (
        "params", "edges", "corner_along", "corner_perp", "scale", "skewed"
    )

    def __init__(self, params: np.ndarray):
        self.params = params
        self.corner_along = params[:, _CORNER_ALONG]
        self.corner_perp = params[:, _CORNER_PERP]
        corners = oriented_box_corners(params)
        self.edges = np.concatenate(
            [corners, corners[:, _NEXT_CORNER]], axis=2
        ).reshape(-1, 4)
        self.scale = float(np.abs(corners).max()) if len(params) else 0.0
        norm = params[:, 2] * params[:, 2] + params[:, 3] * params[:, 3]
        self.skewed = np.abs(norm - 1.0) > _UNIT_AXIS_TOL


def edge_box_distances_sq(
    edges: np.ndarray, boxes: PackedBoxes
) -> np.ndarray:
    """Squared distance from every edge to every box, ``(e, b)``.

    Both endpoints move into each box's frame; a segment and a
    rectangle that share a point (no separating axis among the two
    rectangle axes and the segment normal) are at distance 0, otherwise
    the minimum is attained at a segment endpoint or a rectangle corner.
    """
    params = boxes.params
    ux, uy = params[:, 2], params[:, 3]
    lo_a, length = params[:, 5], params[:, 4]
    lo_p, hi_p = params[:, 6], params[:, 7]
    # (e, 2 endpoints, b) coordinates relative to each box anchor
    rx = edges[:, 0::2, None] - params[:, 0]
    ry = edges[:, 1::2, None] - params[:, 1]
    along = rx * ux + ry * uy
    perp = ry * ux - rx * uy
    # endpoints to the rectangle
    da = np.maximum(np.maximum(lo_a - along, 0.0), along - length)
    dp = np.maximum(np.maximum(lo_p - perp, 0.0), perp - hi_p)
    d2 = (da * da + dp * dp).min(axis=1)
    # rectangle corners to the segment, (e, b, 4)
    a0, p0 = along[:, 0], perp[:, 0]
    va = along[:, 1] - a0
    vp = perp[:, 1] - p0
    qa = boxes.corner_along - a0[..., None]
    qp = boxes.corner_perp - p0[..., None]
    va3, vp3 = va[..., None], vp[..., None]
    seg_sq = va3 * va3 + vp3 * vp3
    t = (qa * va3 + qp * vp3) / np.where(seg_sq == 0.0, 1.0, seg_sq)
    t = np.minimum(np.maximum(t, 0.0), 1.0)
    ra = qa - t * va3
    rp = qp - t * vp3
    d2 = np.minimum(d2, (ra * ra + rp * rp).min(axis=2))
    # separating axes: the rectangle's two, then the segment normal
    side = vp3 * qa - va3 * qp
    touch = (
        (along.max(axis=1) >= lo_a)
        & (along.min(axis=1) <= length)
        & (perp.max(axis=1) >= lo_p)
        & (perp.min(axis=1) <= hi_p)
        & (side.min(axis=2) <= 0.0)
        & (side.max(axis=2) >= 0.0)
    )
    d2[touch] = 0.0
    return d2


def edges_near_boxes(
    edges: np.ndarray, boxes: PackedBoxes, eps: float, band: float
) -> Tuple[np.ndarray, np.ndarray]:
    """``(near, undecided)`` masks over every (edge, box) pair.

    ``near`` holds the pairs certainly within ``eps``; ``undecided``
    the pairs within ``band`` of ``eps`` (or against a skewed box),
    which the caller must re-decide with the scalar rule.
    """
    d2 = edge_box_distances_sq(edges, boxes)
    lo = eps - band
    hi = eps + band
    near = d2 <= (lo * lo if lo >= 0.0 else -1.0)
    undecided = ~near & (d2 <= hi * hi)
    if boxes.skewed.any():
        undecided |= boxes.skewed
        near &= ~boxes.skewed
    return near, undecided


def _band(a: PackedBoxes, b: PackedBoxes) -> float:
    return LEMMA14_BAND * (1.0 + max(a.scale, b.scale))


def _settle(
    near: np.ndarray,
    undecided: np.ndarray,
    decide: Callable[[int, int], bool],
    groups: Optional[np.ndarray] = None,
) -> None:
    """Give the undecided pairs the scalar rule's decision.

    An edge needs one near box per group of columns (``groups`` holds
    the groups' column offsets; ``None`` is one group), so a pair is
    only decided while its edge has no near box in its group yet.
    """
    lo, hi = 0, near.shape[1]
    for e, j in zip(*np.nonzero(undecided)):
        if groups is not None:
            g = int(np.searchsorted(groups, j, side="right")) - 1
            lo, hi = groups[g], groups[g + 1]
        if not near[e, lo:hi].any() and decide(int(e), int(j)):
            near[e, j] = True


def edges_exceed(a: DPFeatures, b: DPFeatures, eps: float) -> bool:
    """One direction of Lemma 14 by the packed kernel: some edge of
    ``a``'s boxes is farther than ``eps`` from all of ``b``'s boxes.

    Equal to ``a.exceeds_box_bound(b, eps)``.
    """
    pa, pb = a.packed, b.packed
    near, undecided = edges_near_boxes(pa.edges, pb, eps, _band(pa, pb))
    if undecided.any():
        _settle(
            near,
            undecided,
            lambda e, j: a.edge_near_box(e // 4, e % 4, b, j, eps),
        )
    return not near.any(axis=1).all()


def boxes_exceed(a: DPFeatures, b: DPFeatures, eps: float) -> bool:
    """Lemma 14 in both directions for one pair of feature sets."""
    return edges_exceed(a, b, eps) or edges_exceed(b, a, eps)


def boxes_exceed_many(
    q: DPFeatures,
    params: np.ndarray,
    counts: np.ndarray,
    features_of: Callable[[int], DPFeatures],
    eps: float,
) -> np.ndarray:
    """:func:`boxes_exceed` of ``q`` against ``n`` candidates at once.

    ``params`` concatenates the candidates' packed boxes, ``counts``
    holds each one's box count, and ``features_of(i)`` returns
    candidate ``i``'s scalar features (only undecided pairs call it).
    Returns the ``(n,)`` rejection mask.
    """
    n = len(counts)
    cand = PackedBoxes(params)
    pq = q.packed
    band = _band(pq, cand)
    owner = np.repeat(np.arange(n), counts)
    offsets = np.concatenate(([0], np.cumsum(counts)))

    def local(box: int) -> Tuple[int, int]:
        i = int(owner[box])
        return i, box - int(offsets[i])

    # Candidate edges against the query's boxes: a candidate with one
    # edge far from every query box is rejected.
    near, undecided = edges_near_boxes(cand.edges, pq, eps, band)
    if undecided.any():

        def decide_candidate_edge(e: int, j: int) -> bool:
            i, box = local(e // 4)
            return features_of(i).edge_near_box(box, e % 4, q, j, eps)

        _settle(near, undecided, decide_candidate_edge)
    stranded = (~near.any(axis=1)).reshape(-1, 4).any(axis=1)
    rejected = np.bincount(owner[stranded], minlength=n) > 0

    # Query edges against each candidate's boxes: a candidate none of
    # whose boxes comes near some query edge is rejected.
    near, undecided = edges_near_boxes(pq.edges, cand, eps, band)
    if undecided.any():

        def decide_query_edge(e: int, j: int) -> bool:
            i, box = local(j)
            return q.edge_near_box(e // 4, e % 4, features_of(i), box, eps)

        _settle(near, undecided, decide_query_edge, offsets)
    prefix = np.zeros((len(near), len(params) + 1), dtype=np.int64)
    np.cumsum(near, axis=1, out=prefix[:, 1:])
    covered = prefix[:, offsets[1:]] - prefix[:, offsets[:-1]]
    rejected |= (covered == 0).any(axis=0)
    return rejected
