"""Differential test: the bisected ExtentMap against the linear walk it
replaced.

``linear_resolve`` / ``linear_block_count`` / ``linear_resolve_range``
below are the pre-PR-17 methods, kept verbatim as functions over a plain
extent list: the reference model.  Hypothesis feeds both the same random
extent lists, built through the constructor, through ``append`` and
through ``apply_runs``.
"""

from typing import List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import BLOCK_SIZE, Extent, ExtentMap
from repro.storage.blockmap import extents_from_payload, extents_to_payload


def linear_block_count(extents: List[Extent]) -> int:
    return sum(e.length for e in extents)


def linear_resolve(extents: List[Extent], logical_block: int) -> Tuple[str, int]:
    if logical_block < 0:
        raise IndexError(f"negative logical block {logical_block}")
    remaining = logical_block
    for e in extents:
        if remaining < e.length:
            return (e.device, e.start_lba + remaining)
        remaining -= e.length
    raise IndexError(f"logical block {logical_block} beyond mapped extent")


def linear_resolve_range(extents: List[Extent], logical_start: int,
                         count: int) -> List[Tuple[str, int, int]]:
    if count <= 0:
        return []
    runs: List[Tuple[str, int, int]] = []
    for lb in range(logical_start, logical_start + count):
        dev, lba = linear_resolve(extents, lb)
        if runs and runs[-1][0] == dev and runs[-1][1] + runs[-1][2] == lba:
            dev0, lba0, len0 = runs[-1]
            runs[-1] = (dev0, lba0, len0 + 1)
        else:
            runs.append((dev, lba, 1))
    return runs


# Two devices and small lbas, so physically adjacent neighbours (which
# resolve_range must merge across an extent boundary) are common.
extent_lists = st.lists(
    st.builds(Extent, device=st.sampled_from(["d1", "d2"]),
              start_lba=st.integers(min_value=0, max_value=12),
              length=st.integers(min_value=1, max_value=5)),
    max_size=12)


def _result(fn, *args):
    try:
        return fn(*args)
    except IndexError:
        return IndexError


@settings(max_examples=300, deadline=None)
@given(extents=extent_lists, how=st.sampled_from(["init", "append", "runs"]))
def test_bisected_map_matches_linear_reference(extents, how):
    if how == "init":
        em = ExtentMap(extents=list(extents))
    elif how == "append":
        em = ExtentMap()
        for e in extents:
            em.append(e)
    else:
        em = extents_from_payload(
            [(e.device, e.start_lba, e.length) for e in extents])
    assert em.extents == extents
    total = linear_block_count(extents)
    assert em.block_count == total
    assert em.size_bytes == total * BLOCK_SIZE
    for lb in range(total):
        assert em.resolve(lb) == linear_resolve(extents, lb)
    # IndexError at both ends, empty map included.
    for lb in (-1, -total - 1, total, total + 3):
        with pytest.raises(IndexError):
            em.resolve(lb)
    for start in range(-1, total + 1):
        for count in range(0, total - start + 2):
            assert _result(em.resolve_range, start, count) == \
                _result(linear_resolve_range, extents, start, count), \
                (start, count)


@settings(max_examples=200, deadline=None)
@given(extents=extent_lists, data=st.data())
def test_apply_runs_is_by_position_and_idempotent(extents, data):
    """Any sequence of deltas cut from one lineage — overlapping, repeated,
    out of order — converges to the longest prefix a delta reached, as
    long as no delta starts past what the map holds (the server's ``k <=
    held count`` guarantee)."""
    runs = extents_to_payload(ExtentMap(extents=list(extents)))
    em = ExtentMap(layout_gen=7)
    reached = 0
    for _ in range(data.draw(st.integers(0, 8))):
        start = data.draw(st.integers(0, len(em.extents)))
        end = data.draw(st.integers(start, len(runs)))
        em.apply_runs(start, runs[start:end])
        reached = max(reached, end)
        assert extents_to_payload(em) == runs[:reached]
        assert em.block_count == linear_block_count(extents[:reached])
    assert em.layout_gen == 7
    assert extents_to_payload(em, reached) == []
    if len(em.extents) < len(runs):
        with pytest.raises(ValueError):      # a gap is refused, never guessed
            em.apply_runs(len(em.extents) + 1, runs[len(em.extents) + 1:])


def test_received_runs_are_validated_once_each():
    em = ExtentMap()
    em.apply_runs(0, [("d", 0, 2)])
    with pytest.raises(ValueError):
        em.apply_runs(1, [("d", 4, 0)])        # zero-length run on the wire
    with pytest.raises(ValueError):
        em.apply_runs(1, [("d", -4, 1)])
    # ...while the overlap with what is held is skipped unread.
    em.apply_runs(0, [("ignored", -1, 0), ("d", 8, 1)])
    assert extents_to_payload(em) == [("d", 0, 2), ("d", 8, 1)]
