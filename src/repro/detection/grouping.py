"""Group generation (paper §V-A, Table II).

Candidates are enumerated in *forward-group order*: (1,2), (1,3), ...,
(1,n), (2,3), ..., (n-1,n).  The forward group's subgroups are contiguous
slices of that order; the backward group's subgroups gather candidates
sharing an ending stay point, sorted by descending starting index.

Inside each subgroup, neighbouring candidates stand in inclusion
(left-to-right) and exclusion (right-to-left) relationships, and all of a
subgroup's candidates are analogous (same starting or ending stay point) —
the relationships the BiLSTM detectors exploit.
"""

from __future__ import annotations

import numpy as np

__all__ = ["pair_to_index", "index_to_pair", "enumerate_pairs",
           "forward_index_maps", "backward_index_maps"]


def enumerate_pairs(num_stay_points: int) -> list[tuple[int, int]]:
    """All (i', j') pairs in forward-group order."""
    return [(i, j)
            for i in range(1, num_stay_points + 1)
            for j in range(i + 1, num_stay_points + 1)]


def pair_to_index(num_stay_points: int, pair: tuple[int, int]) -> int:
    """Flat candidate index of pair (i', j') in forward-group order."""
    i, j = pair
    n = num_stay_points
    if not 1 <= i < j <= n:
        raise ValueError(f"invalid pair {pair} for n={n}")
    # Candidates before subgroup i: (n-1) + (n-2) + ... + (n-i+1).
    offset = (i - 1) * n - i * (i - 1) // 2
    return offset + (j - i - 1)


def index_to_pair(num_stay_points: int, index: int) -> tuple[int, int]:
    """Inverse of :func:`pair_to_index`."""
    n = num_stay_points
    total = n * (n - 1) // 2
    if not 0 <= index < total:
        raise ValueError(f"index {index} out of range for n={n}")
    remaining = index
    for i in range(1, n):
        size = n - i
        if remaining < size:
            return (i, i + 1 + remaining)
        remaining -= size
    raise AssertionError("unreachable")


#: Index maps are pure functions of ``n`` and are rebuilt for every
#: trajectory of every detect call; stay-point counts repeat heavily
#: across a fleet, so a small memo removes the quadratic Python loop
#: from the online path.  Cached arrays are frozen — consumers that
#: offset them (the batched inference core, the joint trainer) already
#: produce fresh arrays via ``indices + offset``.
_INDEX_MAP_MEMO: dict[tuple[str, int], list[np.ndarray]] = {}
_INDEX_MAP_MEMO_MAX = 1024


def _memoized_maps(kind: str, num_stay_points: int, build) -> list[np.ndarray]:
    key = (kind, num_stay_points)
    maps = _INDEX_MAP_MEMO.get(key)
    if maps is None:
        maps = build(num_stay_points)
        for indices in maps:
            indices.setflags(write=False)
        if len(_INDEX_MAP_MEMO) >= _INDEX_MAP_MEMO_MAX:
            _INDEX_MAP_MEMO.clear()
        _INDEX_MAP_MEMO[key] = maps
    return list(maps)


def forward_index_maps(num_stay_points: int) -> list[np.ndarray]:
    """Candidate indices of subgroups g_1..g_{n-1} (same starting index,
    ascending ending index)."""
    return _memoized_maps("forward", num_stay_points, _forward_index_maps)


def backward_index_maps(num_stay_points: int) -> list[np.ndarray]:
    """Candidate indices of subgroups ḡ_2..ḡ_n (same ending index,
    descending starting index)."""
    return _memoized_maps("backward", num_stay_points, _backward_index_maps)


def _forward_index_maps(num_stay_points: int) -> list[np.ndarray]:
    n = num_stay_points
    return [np.array([pair_to_index(n, (i, j)) for j in range(i + 1, n + 1)])
            for i in range(1, n)]


def _backward_index_maps(num_stay_points: int) -> list[np.ndarray]:
    n = num_stay_points
    return [np.array([pair_to_index(n, (i, j)) for i in range(j - 1, 0, -1)])
            for j in range(2, n + 1)]
