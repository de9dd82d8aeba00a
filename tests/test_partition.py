"""Width-grid construction: decade partitions and the eleven sweep sets."""

import itertools

from hypothesis import given
from hypothesis import strategies as st

from abcertify.config import BEAMS, MAGNETS, get_config
from abcertify.partition import (
    SET_NAMES,
    _order_of,
    anchor_width,
    decade_partition,
    sigma_sets,
    sweep_pairs,
)

import published


def test_worked_example():
    assert decade_partition(1, 25, 5) == [1.0, 6.0, 10.0, 25.0]


def test_endpoints_and_ordering():
    pts = decade_partition(2.5e-7, 9.1e-7, 0.3)
    assert pts[0] == 2.5e-7 and pts[-1] == 9.1e-7
    assert all(b > a for a, b in zip(pts, pts[1:]))


def test_degenerate_and_reversed():
    assert decade_partition(5, 5, 1) == [5.0]
    assert decade_partition(5, 1, 1) == decade_partition(1, 5, 1)


def test_order_of():
    assert _order_of(1e-7) == -7
    assert _order_of(9.99e-7) == -7
    assert _order_of(1.0000000000000002e-6) == -6
    assert _order_of(1.0) == 0


@given(
    st.floats(min_value=1e-10, max_value=9e-4),
    st.floats(min_value=1e-10, max_value=9e-4),
    st.sampled_from([0.1, 0.25, 0.5, 1.0, 3.0]),
)
def test_gap_law(a, b, n0):
    lo, hi = sorted((a, b))
    pts = decade_partition(lo, hi, n0)
    assert pts[0] == lo and pts[-1] == hi
    for left, right in zip(pts, pts[1:]):
        step = n0 * 10.0 ** _order_of(left)
        assert right > left
        assert right - left <= step * (1.0 + 1e-9)


# ----------------------------------------------------------------------
# the eleven certification sets
# ----------------------------------------------------------------------


def test_set_sizes(cfg):
    sets = sigma_sets(cfg)
    assert tuple(sorted(sets)) == tuple(sorted(SET_NAMES))
    for name in SET_NAMES:
        assert len(sets[name]) - 1 == published.FROZEN_PAIR_COUNTS[name]


def test_sets_cover_working_range():
    # exact float endpoints: the sets leave no gap, not even an ulp
    for magnet, beam in itertools.product(sorted(MAGNETS), sorted(BEAMS)):
        cfg = get_config(magnet, beam)
        spans = sorted((p[0], p[-1]) for p in sigma_sets(cfg).values())
        assert spans[0][0] == cfg.sigma_min
        reach = spans[0][1]
        for lo, hi in spans[1:]:
            assert lo <= reach, f"coverage gap before {lo} ({magnet}/{beam})"
            reach = max(reach, hi)
        assert reach == cfg.sigma_max


def test_set_interiors_strictly_increasing(cfg):
    for pts in sigma_sets(cfg).values():
        assert all(b > a for a, b in zip(pts, pts[1:]))


def test_anchor_widths(cfg):
    assert anchor_width("sigma11", cfg) == cfg.sigma0
    for name in SET_NAMES[:-1]:
        assert anchor_width(name, cfg) == 1e-6


def test_sweep_pairs_structure(cfg):
    jobs = sweep_pairs(cfg)
    assert len(jobs) == published.FROZEN_TOTAL_PAIRS
    sets = sigma_sets(cfg)
    seen = {}
    for name, idx, lo, hi, mu3 in jobs:
        assert hi > lo
        assert mu3 == anchor_width(name, cfg)
        assert sets[name][idx] == lo and sets[name][idx + 1] == hi
        seen[name] = seen.get(name, 0) + 1
    assert seen == published.FROZEN_PAIR_COUNTS
