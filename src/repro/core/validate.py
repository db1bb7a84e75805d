"""Query-boundary checks shared by the engine, batch and cluster paths.

Bad input must fail here with :class:`~repro.exceptions.QueryError`,
not deep inside indexing (a NaN reaches ``int()`` in the XZ* cell
arithmetic) and never as a silently wrong answer.
"""

from __future__ import annotations

from repro.exceptions import QueryError
from repro.geometry.trajectory import Trajectory, all_finite


def check_threshold(eps: float) -> None:
    """Reject a threshold that is negative or NaN (``inf`` is legal)."""
    if not eps >= 0:
        raise QueryError(f"threshold must be non-negative, got {eps}")


def check_query(query: Trajectory) -> None:
    """Reject a query trajectory with a NaN or infinite coordinate."""
    if not all_finite(query.points):
        raise QueryError(f"query {query.tid!r} has a non-finite coordinate")
