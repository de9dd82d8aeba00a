"""Per-pair certificates: window grids, majorants, flags, sweep plumbing."""

import concurrent.futures
import csv
import dataclasses
import hashlib
import io
import math
import pickle
import random
import signal

import mpmath
import numpy as np
import pytest

from abcertify import certify
from abcertify.certify import (
    CSV_COLUMNS,
    PairResult,
    check_pair,
    csv_rows,
    grid_majorant,
    sweep,
    write_csv,
)
from abcertify.config import ExperimentConfig, get_config
from abcertify.kinematics import rho, z_crossing
from abcertify.partition import SET_NAMES, sweep_pairs
from abcertify.xreal import XReal, fold_add_logs, mul_up
from conftest import ALL_COMBOS, build_full_window, build_window
from oracles import mp_sci_string, window_integral_quad
from published import FROZEN_PAIR_COUNTS

_PI4 = math.pi ** 0.25
_SQRT_PI = math.sqrt(math.pi)


def _random_window_tuples(n, seed):
    """Well-conditioned (sigma, mv, zeta, s, z_cap, delta0, r1) tuples.

    Endpoints come from z_crossing so the rescaled window sits inside
    (0.2, 2.5); r1 = (1+u)/rho(z_cap) keeps the b6 hypothesis
    r1*rho >= 1 valid on the whole window.
    """
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        sigma = rng.uniform(0.5, 3.0)
        mv = rng.uniform(2.0, 10.0)
        zeta = rng.uniform(0.01, 0.3)
        lo_t = rng.uniform(0.2, 1.2)
        hi_cap = min(2.5, 0.9 * sigma * mv)
        if hi_cap <= lo_t + 0.1:
            continue
        hi_t = rng.uniform(lo_t + 0.1, hi_cap)
        s = z_crossing(lo_t, sigma, mv, zeta)
        z_cap = z_crossing(hi_t, sigma, mv, zeta)
        delta0 = rng.uniform(0.05, 1.0)
        r1 = (1.0 + rng.uniform(0.05, 1.5)) / rho(sigma, mv, z_cap)
        out.append((sigma, mv, zeta, s, z_cap, delta0, r1))
    return out


def _long_window_tuples(n, seed):
    """Like :func:`_random_window_tuples`, but the rescaled window runs
    out to (12, 25): its cells decay by far more than 2^-60, so a grid
    built for one kind stops well before the window's end."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        sigma = rng.uniform(0.5, 3.0)
        mv = rng.uniform(10.0, 40.0)
        zeta = rng.uniform(0.01, 0.3)
        lo_t = rng.uniform(0.2, 1.2)
        hi_cap = min(25.0, 0.9 * sigma * mv)
        if hi_cap <= 12.0:
            continue
        hi_t = rng.uniform(12.0, hi_cap)
        s = z_crossing(lo_t, sigma, mv, zeta)
        z_cap = z_crossing(hi_t, sigma, mv, zeta)
        delta0 = rng.uniform(0.05, 1.0)
        r1 = (1.0 + rng.uniform(0.05, 1.5)) / rho(sigma, mv, z_cap)
        out.append((sigma, mv, zeta, s, z_cap, delta0, r1))
    return out


# ----------------------------------------------------------------------
# window construction
# ----------------------------------------------------------------------


def test_build_window_empty_interval():
    assert build_window(1.0, 5.0, 0.1, 2.0, 2.0, 0.5, 2.0, "b4") is None
    assert build_window(1.0, 5.0, 0.1, 2.0, 1.5, 0.5, 2.0, "b4") is None


def test_build_window_degenerate_orientation():
    # a strongly negative offset puts the interval past the turning
    # point of (z - zeta) * rho(z): the rescaled window inverts and the
    # builder falls back to the one-cell majorant
    win = build_window(1.0, 1.0, -4.0, 1.0, 2.0, 0.5, 2.0, "b3")
    assert win is not None
    assert win.hi <= win.lo
    assert win.nodes.size == 0 and win.x.size == 0
    g = grid_majorant(win, "b4")
    # built for b4, the window keeps that same value
    kept = build_window(1.0, 1.0, -4.0, 1.0, 2.0, 0.5, 2.0, "b4")
    assert g == kept.one_cell == grid_majorant(kept, "b4")


def test_build_window_node_layout(cfg):
    sigma, delta0 = 1e-7, 1.0
    zeta = cfg.h(sigma)
    win = build_full_window(sigma, cfg.mv, zeta, 1e-4, 1.2e-3, delta0, cfg.r1, "b4")
    assert win.nodes.size > 0
    assert np.all(win.nodes >= win.lo) and np.all(win.nodes <= win.hi)
    assert np.all(win.nodes < sigma * cfg.mv)
    # node squares sit on the arithmetic grid n * delta0
    ns = win.nodes ** 2 / delta0
    assert np.allclose(ns, np.round(ns), atol=1e-9)
    # matching distances are clipped into [s, z_cap] and stay sorted
    assert np.all(win.x >= win.s) and np.all(win.x <= win.z_cap)
    assert np.all(np.diff(win.x) >= 0.0)


def test_build_window_node_cap(cfg, monkeypatch):
    sigma = 1e-7
    zeta = cfg.h(sigma)
    full = build_full_window(sigma, cfg.mv, zeta, 1e-4, 1.2e-3, 1.0, cfg.r1, "b4")
    monkeypatch.setattr(certify, "NODE_CAP", 50)
    capped = build_full_window(sigma, cfg.mv, zeta, 1e-4, 1.2e-3, 1.0, cfg.r1, "b4")
    assert full.nodes.size > 50
    assert 0 < capped.nodes.size <= 50
    # striding keeps the endpoints of the covered range, only thins it
    assert capped.nodes[0] == full.nodes[0]
    assert capped.nodes[-1] <= full.nodes[-1]
    # a coarser grid can only raise the upper bound
    g_full = grid_majorant(full, "b4")
    g_capped = grid_majorant(capped, "b4")
    assert g_capped >= g_full - 1e-12


def test_fine_user_delta0_chunks_stay_within_cap(cfg, monkeypatch):
    # delta0 = 1e-9 would put ~1e9 nodes in a window; the fixed cap
    # strides the grid so no solver call sees more than NODE_CAP nodes
    chunks = []
    solve = certify.z_crossing_vec

    def counting(*args):
        chunks.append(np.size(args[0]))
        return solve(*args)

    monkeypatch.setattr(certify, "z_crossing_vec", counting)
    set_name, index, mu1, mu2, mu3 = sweep_pairs(cfg, ["sigma6"])[0]
    res = check_pair(cfg, set_name, index, mu1, mu2, mu3, delta0=1e-9)
    assert chunks
    assert max(chunks) <= certify.NODE_CAP
    assert res.passed


# ----------------------------------------------------------------------
# one-cell majorant: kind structure
# ----------------------------------------------------------------------


def test_single_interval_kind_relations():
    r1 = 2.0
    win = build_window(1.0, 1.0, -4.0, 1.0, 2.0, 0.5, r1, "b3")
    rho_end = rho(win.sigma, win.mv, win.z_cap)
    b3, b4, b5, b6 = (grid_majorant(win, k) for k in ("b3", "b4", "b5", "b6"))
    # b4 = b3 minus the miss-the-hole exponent at the right endpoint
    assert b4 - b3 == pytest.approx(-(r1 * r1 / 2.0) * rho_end ** 2, rel=1e-12)
    # b6 = b4 plus the log of the extra r1*rho factor
    assert b6 - b4 == pytest.approx(math.log(r1 * rho_end), rel=1e-12)
    # b5 assembles from scratch with its own prefactor and weight
    expect5 = (
        math.log(win.z_cap - win.s)
        + math.log(math.sqrt(win.hi + _SQRT_PI / 2.0))
        - win.lo * win.lo / 2.0
        - (r1 * r1 / 2.0) * rho_end ** 2
        + math.log(1.0 / math.sqrt(2.0))
    )
    assert b5 == pytest.approx(expect5, rel=1e-12)
    # the rounding chain only ever rounds up
    plain3 = (
        math.log(win.z_cap - win.s)
        - win.lo * win.lo / 2.0
        + math.log(_PI4 / math.sqrt(2.0))
    )
    assert b3 >= plain3


def test_one_cell_majorant_runs_once_per_window_kind(monkeypatch):
    one_cell = []
    cells = certify._cell_logs

    def counting(gaps, *args):
        if np.ndim(gaps) == 0:
            one_cell.append(gaps)
        return cells(gaps, *args)

    monkeypatch.setattr(certify, "_cell_logs", counting)
    # a floored b4 window: the floor test's value serves b4, and b6 on
    # the same window computes its own
    sigma, mv, zeta, delta0 = 1.0, 100.0, 0.1, 0.5
    s = z_crossing(50.0, sigma, mv, zeta)
    z_cap = z_crossing(80.0, sigma, mv, zeta)
    r1 = 1.5 / rho(sigma, mv, z_cap)
    win = build_window(sigma, mv, zeta, s, z_cap, delta0, r1, "b4")
    assert win.nodes.size == 0
    assert grid_majorant(win, "b4") == win.one_cell
    assert len(one_cell) == 1
    grid_majorant(win, "b6")
    assert len(one_cell) == 2
    # a window above the floor with no grid node inside it keeps the
    # value too
    sigma, mv, zeta = 1.3, 3.7, 0.11
    s = z_crossing(0.4, sigma, mv, zeta)
    z_cap = z_crossing(0.9, sigma, mv, zeta)
    win = build_window(sigma, mv, zeta, s, z_cap, 1.0, 2.0, "b4")
    assert win.nodes.size == 0 and win.one_cell > -500.0 * math.log(10.0)
    assert grid_majorant(win, "b4") == win.one_cell
    assert len(one_cell) == 3


# two full-sweep windows (sigma, mv, zeta, s, z_cap, r1, built for b4 /
# b5) on which np.hypot and math.hypot round rho(z_cap) differently, with
# their b3..b6 one-cell logs: the one cell keeps math.hypot's bits
_HYPOT_WINDOWS = [
    (("0x1.0c6f7a0b5ed8dp-20", "0x1.27ab392000000p+34", "0x1.750a990b2953ep-13",
      "0x1.8f4567eb5df19p-13", "0x1.fbfd16cd55f30p-11", "0x1.67a95c853c148p-13"), "b4",
     ("-0x1.55b5e68c97940p+6", "-0x1.cd248df01deffp+13", "-0x1.cd0c269d02cb8p+13",
      "-0x1.ccfb68452ef6fp+13")),
    (("0x1.0c6f7a0b5ed8dp-20", "0x1.27ab392000000p+34", "0x1.750a990b2953ep-13",
      "0x1.a278fc941064cp-13", "0x1.fbfd16cd55f30p-11", "0x1.67a95c853c148p-13"), "b5",
     ("-0x1.e3b612b3428fcp+7", "-0x1.d207fa6dd1cb1p+13", "-0x1.d1ef931ab6a6ap+13",
      "-0x1.d1ded4c2e2d21p+13")),
]


def test_one_cell_keeps_scalar_rho_bits():
    for args, kind, expect in _HYPOT_WINDOWS:
        sigma, mv, zeta, s, z_cap, r1 = map(float.fromhex, args)
        win = build_window(sigma, mv, zeta, s, z_cap, 1.0, r1, kind)
        assert win.nodes.size == 0
        got = [grid_majorant(win, k) for k in ("b3", "b4", "b5", "b6")]
        assert got == [float.fromhex(e) for e in expect]


def _np_hypot_rho(sigma, mv, z):
    """rho(sigma, mv, z) with np.hypot, as the interior cell ends take it."""
    return sigma * mv / np.hypot(sigma * sigma * mv, z)


@pytest.mark.parametrize("kind", ["b3", "b4", "b5", "b6"])
def test_window_end_takes_one_rho(kind, monkeypatch):
    # at z_cap the one cell, the grid's last cell and the stop test all
    # read the window's kept rho_cap, kinematics.rho's float, on windows
    # with nodes where np.hypot rounds rho(z_cap) to another float
    sigma, mv, z_cap = 1.5533902904870556, 8.036964034776119, 29.799075183663874
    example = (sigma, mv, -0.07559900643900136, 2.81675723374046, z_cap, 0.1,
               1.5 / rho(sigma, mv, z_cap))
    windows = [example] + _random_window_tuples(3000, 731) + _long_window_tuples(3000, 732)
    calls = []
    cells = certify._cell_logs

    def stacked(gaps, decay, rho_right, *args):
        if np.ndim(gaps) == 2:  # a pass's (2, n + 1) call: row 1 is the stop test's
            calls.append(np.array(rho_right[1]))
        return cells(gaps, decay, rho_right, *args)

    monkeypatch.setattr(certify, "_cell_logs", stacked)
    checked = 0
    for sigma, mv, zeta, s, z_cap, delta0, r1 in windows:
        rho_cap = rho(sigma, mv, z_cap)
        if rho_cap == _np_hypot_rho(sigma, mv, z_cap):
            continue
        calls.clear()
        win = build_window(sigma, mv, zeta, s, z_cap, delta0, r1, kind)
        if win.nodes.size == 0:
            continue
        checked += 1
        assert win.grid[2, -1] == win.rho_cap == rho_cap
        # each pass's stop test takes its last cells at the kept rho_cap,
        # and the grid ends where that test fires on the full grid
        assert calls and all(np.all(row == rho_cap) for row in calls)
        full = build_full_window(sigma, mv, zeta, s, z_cap, delta0, r1, kind)
        assert win.nodes.size == _first_stop(full, r1, kind)
    assert checked >= 30


def test_grid_majorant_none_is_zero():
    assert grid_majorant(None, "b3") == -math.inf


# ----------------------------------------------------------------------
# majorants dominate true integrals
# ----------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["b3", "b4", "b5", "b6"])
def test_grid_majorant_dominates_quadrature(kind):
    windows = _random_window_tuples(40, 711) + _long_window_tuples(20, 712)
    for sigma, mv, zeta, s, z_cap, delta0, r1 in windows:
        truth = window_integral_quad(kind, sigma, mv, zeta, s, z_cap, r1=r1)
        # the full grid, and the grid truncated for this kind
        for build in (build_full_window, build_window):
            win = build(sigma, mv, zeta, s, z_cap, delta0, r1, kind)
            bound = grid_majorant(win, kind)
            assert bound != -math.inf
            assert bound >= math.log(truth), (kind, build.__name__, sigma, mv, zeta, s, z_cap)


def _first_stop(full, r1, kind):
    """The node a grid built for ``kind`` ends at, read off the full grid:
    the first node J whose remaining cell [x_J, z_cap] is below 2^-60 of
    the cells before it, found by a loop over the nodes."""
    if full.nodes.size == 0:
        return 0
    cells = certify._cell_logs(*full.grid, r1, kind)
    rho_cap = rho(full.sigma, full.mv, full.z_cap)
    decay = full.nodes * full.nodes / 2.0
    last = certify._cell_logs(full.z_cap - full.x, decay, rho_cap, full.hi, r1, kind)
    running = np.logaddexp.accumulate(cells[:-1])
    for j in range(full.nodes.size):
        if last[j] < running[j] + certify._STOP_LOG:
            return j + 1
    return full.nodes.size


def _short_first_prefix(monkeypatch, nodes=None):
    """Start every window on its first ``_MIN_PREFIX`` nodes (or ``nodes``),
    whatever its predicted stop, so a window whose stop test does not
    fire there takes the doubling passes."""
    monkeypatch.setattr(certify, "_STOP_MARGIN", -math.inf)
    if nodes is not None:
        monkeypatch.setattr(certify, "_MIN_PREFIX", nodes)


@pytest.mark.parametrize("kind", ["b3", "b4", "b5", "b6"])
def test_truncated_majorant_matches_full_grid(kind, monkeypatch):
    stopped = rebuilt = 0
    windows = _random_window_tuples(40, 711) + _long_window_tuples(20, 712)
    _short_first_prefix(monkeypatch)
    for sigma, mv, zeta, s, z_cap, delta0, r1 in windows:
        full = build_full_window(sigma, mv, zeta, s, z_cap, delta0, r1, kind)
        cut = build_window(sigma, mv, zeta, s, z_cap, delta0, r1, kind)
        # the truncated grid is a prefix of the full one, cut where the
        # stop test first fires
        J = cut.nodes.size
        assert J == _first_stop(full, r1, kind)
        assert np.array_equal(cut.nodes, full.nodes[:J])
        assert np.array_equal(cut.x, full.x[: cut.x.size])
        if J:
            # bit for bit: the cells before the last are the full grid's,
            # and the last is [x_J, z_cap] with node J's decay
            assert cut.grid[:, :J].tobytes() == full.grid[:, :J].tobytes()
            node = cut.nodes[-1]
            last = [z_cap - cut.x[-1], node * node / 2.0, rho(sigma, mv, z_cap), cut.hi]
            assert cut.grid[:, J].tobytes() == np.array(last).tobytes()
        stopped += J < full.nodes.size
        rebuilt += J > certify._MIN_PREFIX  # built again in a later pass, on a doubled prefix
        lm_full = grid_majorant(full, kind)
        lm_cut = grid_majorant(cut, kind)
        assert abs(lm_cut - lm_full) <= 1e-12, (kind, sigma, mv, zeta, s, z_cap)
    # the stop test fires on the long windows, most of them past the
    # first prefix
    assert stopped >= 20
    assert rebuilt >= 8


@pytest.mark.parametrize("kind", ["b3", "b4", "b5", "b6"])
def test_node_window_keeps_its_cells(kind, monkeypatch):
    # the stop test's cells, plus the last one, are the window's cells:
    # grid_majorant folds them as kept, bit for bit the fresh ones
    windows = _random_window_tuples(10, 711) + _long_window_tuples(10, 712)
    calls = []
    cells = certify._cell_logs

    def counting(*args):
        calls.append(args)
        return cells(*args)

    checked = 0
    for sigma, mv, zeta, s, z_cap, delta0, r1 in windows:
        win = build_window(sigma, mv, zeta, s, z_cap, delta0, r1, kind)
        if win.nodes.size == 0:
            assert win.cells is None
            continue
        checked += 1
        assert win.cells.size == win.nodes.size + 1
        monkeypatch.setattr(certify, "_cell_logs", counting)
        kept = grid_majorant(win, kind)
        monkeypatch.setattr(certify, "_cell_logs", cells)
        assert calls == []
        fresh = cells(*win.grid, r1, kind)
        assert fresh.tobytes() == win.cells.tobytes()
        want = mul_up(fold_add_logs(fresh), certify._PREFACTOR[kind])
        assert float.hex(kept) == float.hex(want)
    assert checked >= 10


def _rebuilt_cells(win, r1, kind):
    """A window's cells rebuilt from its nodes and distances alone: the
    reference its kept grid is checked against."""
    nodes, x = win.nodes, win.x
    gaps = np.concatenate(([x[0] - win.s], np.diff(x), [win.z_cap - x[-1]]))
    decay = np.concatenate(([win.lo * win.lo / 2.0], nodes * nodes / 2.0))
    rho_right = np.append(_np_hypot_rho(win.sigma, win.mv, x), rho(win.sigma, win.mv, win.z_cap))
    return certify._cell_logs(gaps, decay, rho_right, np.append(nodes, win.hi), r1, kind)


@pytest.mark.parametrize("built_for", ["full", "b3", "b4", "b5", "b6"])
def test_window_grid_matches_cells_rebuilt_from_nodes(built_for):
    # every kind's cells read off a window's kept grid equal the cells
    # rebuilt from its nodes and distances, bit for bit: b6 on a b4
    # window (check_pair's shortcut) and any kind on the full grid
    windows = _random_window_tuples(10, 711) + _long_window_tuples(10, 712)
    checked = 0
    for sigma, mv, zeta, s, z_cap, delta0, r1 in windows:
        if built_for == "full":
            win = build_full_window(sigma, mv, zeta, s, z_cap, delta0, r1, "b4")
        else:
            win = build_window(sigma, mv, zeta, s, z_cap, delta0, r1, built_for)
        if win.nodes.size == 0:
            continue
        checked += 1
        assert win.grid.shape == (4, win.nodes.size + 1)
        for kind in ("b3", "b4", "b5", "b6"):
            ref = _rebuilt_cells(win, r1, kind)
            assert certify._cell_logs(*win.grid, r1, kind).tobytes() == ref.tobytes()
            want = mul_up(fold_add_logs(ref), certify._PREFACTOR[kind])
            assert float.hex(grid_majorant(win, kind)) == float.hex(want)
    assert checked >= 10


@pytest.mark.parametrize("kind", ["b3", "b4", "b5", "b6"])
def test_scalar_cell_logs_match_array_call(kind):
    # one cell on floats (math.nextafter/math.sqrt) against the same
    # cell in a numpy call, across many magnitudes and zero gaps
    rng = np.random.default_rng(29)
    h = 10_000
    gaps = np.concatenate([10.0 ** rng.uniform(-14.0, 3.0, h), rng.uniform(0.05, 20.0, h)])
    gaps[rng.random(2 * h) < 0.05] = 0.0
    # small decays keep a one-ulp change of a log visible
    decay = np.concatenate([rng.uniform(0.0, 1.0, h), 10.0 ** rng.uniform(-3.0, 8.0, h)])
    rho_right = 10.0 ** rng.uniform(-6.0, 2.0, 2 * h)
    w_right = 10.0 ** rng.uniform(-2.0, 4.0, 2 * h)
    r1 = 0.5
    array = certify._cell_logs(gaps, decay, rho_right, w_right, r1, kind)
    cells = zip(gaps.tolist(), decay.tolist(), rho_right.tolist(), w_right.tolist())
    for i, args in enumerate(cells):
        one = certify._cell_logs(*args, r1, kind)
        assert type(one) is float
        assert float.hex(one) == float.hex(float(array[i])), (kind, args)
    assert np.count_nonzero(array == -math.inf) == np.count_nonzero(gaps == 0.0)


@pytest.mark.parametrize("kind", ["b3", "b4", "b5", "b6"])
def test_stacked_cell_logs_match_row_calls(kind):
    # a (2, m) call, with the decays broadcast over both rows as a
    # window pass does, gives each row's cells byte for byte; zero gaps
    # in neither, one or both rows take the masked (errstate) path
    rng = np.random.default_rng(31)
    m = 129
    decay = np.concatenate([rng.uniform(0.0, 1.0, 64), 10.0 ** rng.uniform(-3.0, 4.0, m - 64)])
    rho_right = 10.0 ** rng.uniform(-3.0, 1.0, (2, m))
    w_right = 10.0 ** rng.uniform(-2.0, 2.0, (2, m))
    r1 = 0.5
    for zero_rows in ((), (1,), (0, 1)):
        gaps = 10.0 ** rng.uniform(-14.0, 1.0, (2, m))
        for row in zero_rows:
            gaps[row, rng.random(m) < 0.1] = 0.0
            gaps[row, -1] = 0.0
        stacked = certify._cell_logs(gaps, decay, rho_right, w_right, r1, kind)
        assert stacked.shape == (2, m)
        for row in range(2):
            one = certify._cell_logs(gaps[row], decay, rho_right[row], w_right[row], r1, kind)
            assert stacked[row].tobytes() == one.tobytes(), (kind, zero_rows, row)
            assert np.count_nonzero(one == -math.inf) == np.count_nonzero(gaps[row] == 0.0)


@pytest.mark.parametrize("kind", ["b3", "b4", "b5", "b6"])
def test_node_window_pass_makes_one_cell_call(kind, monkeypatch):
    # each pass of a window gets its cells and its stop test's last
    # cells from one (2, n + 1) call, whether or not it stops
    windows = _random_window_tuples(10, 721) + _long_window_tuples(10, 722)
    calls = []
    solve, cells = certify._solve_window, certify._cell_logs

    def solving(win, nodes, *args):
        calls.append(("pass", nodes.size))
        return solve(win, nodes, *args)

    def counting(gaps, *args):
        if np.ndim(gaps):
            calls.append(("cells", np.shape(gaps)))
        return cells(gaps, *args)

    monkeypatch.setattr(certify, "_solve_window", solving)
    monkeypatch.setattr(certify, "_cell_logs", counting)
    _short_first_prefix(monkeypatch)
    passes = 0
    for sigma, mv, zeta, s, z_cap, delta0, r1 in windows:
        calls.clear()
        build_window(sigma, mv, zeta, s, z_cap, delta0, r1, kind)
        want = [call for _, n in calls[::2] for call in (("pass", n), ("cells", (2, n + 1)))]
        assert calls == want
        passes += len(want) // 2
    assert passes > len(windows)  # some windows take more than one pass


# The arguments of the cell ufuncs over every pair of `verify --set all`
# for k2/e1 and k1/e3, widened a little: the cell widths (np.log), w +
# sqrt(pi)/2 (np.sqrt, then np.log; b5), r1 rho (np.log; b6), and the
# legs sigma^2 mv and z of np.hypot (interior cell ends) and math.hypot
# (rho, window ends).
_CELL_LOG_RANGES = ((4e-22, 4e-3), (1.95, 5026.0))
_CELL_SQRT_RANGE = (2.1, 3805.0)
_HYPOT_LEG_RANGES = ((1e-9, 152.0), (2e-6, 4.8e-3))


def test_cell_ufuncs_within_one_ulp():
    # xreal's certification boundary takes these as within one ulp;
    # check that on seeded samples against 200-bit mpmath
    rng = np.random.default_rng(31)

    def sample(lo, hi, n=1000):
        return np.exp(rng.uniform(math.log(lo), math.log(hi), n))

    def assert_within_one_ulp(got, exact):
        for g, e in zip(got.tolist(), exact):
            assert abs(mpmath.mpf(g) - e) <= math.ulp(float(e)), (g, e)

    with mpmath.workprec(200):
        roots = np.sqrt(sample(*_CELL_SQRT_RANGE))
        for x in (*(sample(*r) for r in _CELL_LOG_RANGES), roots):
            assert_within_one_ulp(np.log(x), [mpmath.log(v) for v in x.tolist()])
        x = sample(*_CELL_SQRT_RANGE)
        assert_within_one_ulp(np.sqrt(x), [mpmath.sqrt(v) for v in x.tolist()])
        legs = [sample(*r) for r in _HYPOT_LEG_RANGES]
        exact = [mpmath.sqrt(mpmath.mpf(a) ** 2 + mpmath.mpf(b) ** 2) for a, b in zip(*legs)]
        assert_within_one_ulp(np.hypot(*legs), exact)
        assert_within_one_ulp(np.array(list(map(math.hypot, *legs))), exact)


@pytest.mark.parametrize("kind", ["b3", "b4", "b5", "b6"])
def test_floored_window_solves_no_node(kind, monkeypatch):
    # the rescaled window starts at 50: exp(-50^2/2) is below 1e-500
    sigma, mv, zeta, delta0 = 1.0, 100.0, 0.1, 0.5
    s = z_crossing(50.0, sigma, mv, zeta)
    z_cap = z_crossing(80.0, sigma, mv, zeta)
    r1 = 1.5 / rho(sigma, mv, z_cap)
    calls = []
    solve = certify.z_crossing_vec

    def counting(*args):
        calls.append(np.size(args[0]))
        return solve(*args)

    monkeypatch.setattr(certify, "z_crossing_vec", counting)
    win = build_window(sigma, mv, zeta, s, z_cap, delta0, r1, kind)
    assert calls == []
    assert win.nodes.size == 0 and win.x.size == 0
    lm = grid_majorant(win, kind)
    assert lm <= -500.0 * math.log(10.0)
    # the kept floor value is the one-cell majorant, computed afresh
    assert certify._one_cell(win, kind) == lm
    # without the floor the same window solves its whole grid
    full = build_full_window(sigma, mv, zeta, s, z_cap, delta0, r1, kind)
    assert sum(calls) == full.nodes.size > 0


def test_refinement_approaches_truth():
    sigma, mv, zeta = 1.3, 3.7, 0.11
    s = z_crossing(0.4, sigma, mv, zeta)
    z_cap = z_crossing(1.9, sigma, mv, zeta)
    r1 = 1.4 / rho(sigma, mv, z_cap)
    truth = math.log(window_integral_quad("b4", sigma, mv, zeta, s, z_cap, r1=r1))
    logs = []
    for delta0 in (1.0, 0.5, 0.25, 0.125, 0.0625):
        win = build_full_window(sigma, mv, zeta, s, z_cap, delta0, r1, "b4")
        logs.append(grid_majorant(win, "b4"))
    # halving delta0 refines the grid (old nodes survive), so the upper
    # sum can only shrink; it stays above the true integral throughout
    for a, b in zip(logs, logs[1:]):
        assert b <= a + 1e-12
    assert all(lm >= truth for lm in logs)
    assert logs[-1] - truth < logs[0] - truth


@pytest.mark.parametrize("kind", ["b3", "b4", "b5", "b6"])
@pytest.mark.parametrize("delta0", [0.1, 1e-308])
def test_window_that_starts_before_zeta_dominates_quadrature(kind, delta0):
    # s < zeta puts the window's left end at lo = -1.40 < 0, where the
    # Gaussian tail is up to sqrt(2) times its value at Z = 0; the nodes
    # start at n = 1, and at delta0 = 1e-308 lo^2/delta0 overflows while
    # hi^2/delta0 does not
    sigma, mv, zeta, s, z_cap = 1.0, 5.0, 1.5, 0.1, 2.0
    r1 = 2.0 / rho(sigma, mv, z_cap)
    truth = math.log(window_integral_quad(kind, sigma, mv, zeta, s, z_cap, r1=r1))
    for build in (build_full_window, build_window):
        win = build(sigma, mv, zeta, s, z_cap, delta0, r1, kind)
        assert win.lo < 0.0 < win.hi and win.nodes.size > 0
        assert win.nodes[0] == math.sqrt(delta0)  # node n = 1
        assert grid_majorant(win, kind) >= truth, (kind, build.__name__)
    # the one cell [s, z_cap] alone, and a window that ends before zeta
    # (hi = -0.995 < -sqrt(pi)/2: no nodes, its one cell only, whose b5
    # weight sqrt(Z + sqrt(pi)/2) is taken at Z = 0)
    assert certify._one_cell(win, kind) >= truth
    z_left = 0.5
    r1 = 2.0 / rho(sigma, mv, z_left)
    left = build_full_window(sigma, mv, zeta, s, z_left, delta0, r1, kind)
    assert left.hi < 0.0 and left.nodes.size == 0
    assert grid_majorant(left, kind) >= math.log(window_integral_quad(kind, sigma, mv, zeta, s, z_left, r1=r1))


# ----------------------------------------------------------------------
# check_pair
# ----------------------------------------------------------------------


def test_first_pair_certificate(cfg):
    set_name, index, mu1, mu2, mu3 = sweep_pairs(cfg, ["sigma1"])[0]
    res = check_pair(cfg, set_name, index, mu1, mu2, mu3)
    assert res.flags == "ok"
    assert res.passed
    assert res.delta0 == 1.0  # mu1 * mv >> 10 picks the coarse grid
    assert res.margin_log10 == pytest.approx(6284.861165, abs=1e-5)
    row = res.csv_row()
    assert row[0] == "sigma1"
    assert row[1] == f"{mu1:.17g}"
    assert row[4] == "ok"
    assert row[9] == "6284.861165"
    assert row[10] == "pass"


def test_check_pair_wraps_only_its_four_reported_values(cfg, monkeypatch):
    # the certificate runs on log floats: the only XReal a pair builds
    # are its two left- and two right-hand sides
    built = []
    init = XReal.__init__

    def counting(self, log_mag):
        built.append(log_mag)
        init(self, log_mag)

    monkeypatch.setattr(XReal, "__init__", counting)
    for name in SET_NAMES:
        built.clear()
        res = check_pair(cfg, *sweep_pairs(cfg, [name])[0])
        reported = (res.lhs_interacting, res.rhs_interacting, res.lhs_outgoing, res.rhs_outgoing)
        assert built == [v.log_mag for v in reported], name


# the smallest margin of each set before the grid was truncated, and
# the pair that has it
PARENT_WORST_PAIRS = [
    ("sigma1", 2670, 6284.855755512995),
    ("sigma2", 2368, 6284.84820044284),
    ("sigma3", 15129, 0.003108325685662981),
    ("sigma4", 0, 0.010992089997943098),
    ("sigma5", 0, 0.005020855593048203),
    ("sigma6", 0, 0.001599718822335887),
    ("sigma7", 0, 0.004730882354507357),
    ("sigma8", 0, 0.0017201235221977217),
    ("sigma9", 0, 6284.116485461278),
    ("sigma10", 0, 620.1093662379835),
    ("sigma11", 0, 2.1519704927003227),
]


@pytest.mark.parametrize(
    "set_name,index,margin", PARENT_WORST_PAIRS, ids=[p[0] for p in PARENT_WORST_PAIRS]
)
def test_worst_pair_margin_not_lower(cfg, set_name, index, margin):
    job = sweep_pairs(cfg, [set_name])[index]
    assert job[:2] == (set_name, index)
    res = check_pair(cfg, *job)
    assert res.passed and res.flags == "ok"
    assert res.margin_log10 >= margin


def test_tightest_family_still_passes(cfg):
    set_name, index, mu1, mu2, mu3 = sweep_pairs(cfg, ["sigma4"])[0]
    res = check_pair(cfg, set_name, index, mu1, mu2, mu3)
    assert res.passed
    assert 0.0 < res.margin_log10 < 0.1


def test_flag_crossover_side(cfg):
    # mu1 below the crossover width, mu2/mu3 above, solver still in range
    res = check_pair(cfg, "x", 0, 2.27e-9, 3e-9, 3e-9)
    assert res.flags == "!crossover_side"
    assert not res.passed


def test_flag_anchor_side(cfg):
    res = check_pair(cfg, "x", 0, 1e-7, 2e-7, 1.5e-7)
    assert res.flags == "!anchor_side"
    assert not res.passed


def test_flag_solver(cfg):
    # widths so small that sigma * mv < 1/sqrt(2): no crossing exists
    res = check_pair(cfg, "x", 0, 3e-11, 3e-11, 3e-11)
    assert res.flags == "!solver"
    assert not res.passed
    assert res.margin_log10 == -math.inf
    assert "omega_inv" in res.note
    assert res.lhs_interacting.is_zero and res.rhs_outgoing.is_zero
    assert res.delta0 == 0.1  # mu1 * mv < 10 picks the fine grid


def test_inequality_failure_without_flags(cfg):
    # hypotheses hold but the pair is artificial (mu3 far below mu1,
    # mu2 twice mu1): the inequality itself fails, honestly reported
    res = check_pair(cfg, "x", 0, 4e-5, 8e-5, 1e-6)
    assert res.flags == "ok"
    assert not res.passed
    assert res.margin_log10 < 0.0
    assert res.csv_row()[10] == "FAIL"


def test_pair_scale_tail_branch(cfg, monkeypatch):
    # No built-in pair reaches this branch (r_pair / z_cap >= 4.9), so
    # the crossover scale S1 is pinned halfway into the b4 window: the
    # b6 window must end there and a b3 window carry the rest.
    job = sweep_pairs(cfg, ["sigma10"])[0]
    windows = []  # (sigma, s, z_cap, kind) of every window built
    build = certify._build_windows

    def recording(sigma, mv, zeta, delta0, spans, r1, rho_at):
        windows.extend((sigma, s, z_cap, kind) for s, z_cap, kind in spans)
        return build(sigma, mv, zeta, delta0, spans, r1, rho_at)

    monkeypatch.setattr(certify, "_build_windows", recording)
    base = check_pair(cfg, *job)
    assert "b3" not in [w[3] for w in windows]
    z2, z_cap = next((w[1], w[2]) for w in windows if w[3] == "b4")
    cut = 0.5 * (z2 + z_cap)
    monkeypatch.setattr(ExperimentConfig, "s1", lambda self, sigma: cut)
    windows.clear()
    res = check_pair(cfg, *job)
    for kind, span in (("b6", (z2, cut)), ("b3", (cut, z_cap))):
        built = [(w[0], (w[1], w[2])) for w in windows if w[3] == kind]
        assert len(built) == 2 and {b[1] for b in built} == {span}
    assert res.passed and res.flags == "ok"
    assert res.margin_log10 < base.margin_log10

    # zeroing the b3 tail drops the e^{-1/2} tail term from both sides
    majorant = certify.grid_majorant

    def no_tail(win, kind):
        return -math.inf if kind == "b3" else majorant(win, kind)

    monkeypatch.setattr(certify, "grid_majorant", no_tail)
    cut_off = check_pair(cfg, *job)
    assert res.lhs_interacting.log_mag > cut_off.lhs_interacting.log_mag + 1.0
    assert res.lhs_outgoing.log_mag > cut_off.lhs_outgoing.log_mag + 1.0
    assert res.rhs_interacting.log_mag == cut_off.rhs_interacting.log_mag


def _pair_windows(cfg, job, delta0, monkeypatch):
    """check_pair's windows of one pair: (width args, spans, windows) per width."""
    built = []
    build = certify._build_windows

    def recording(sigma, mv, zeta, d0, spans, r1, rho_at):
        wins = build(sigma, mv, zeta, d0, spans, r1, rho_at)
        built.append(((sigma, mv, zeta, d0, r1), spans, wins))
        return wins

    monkeypatch.setattr(certify, "_build_windows", recording)
    check_pair(cfg, *job, delta0)
    monkeypatch.setattr(certify, "_build_windows", build)
    return built


def _window_bits(win):
    if win is None:
        return None
    arrays = [win.nodes, win.x] + [a for a in (win.grid, win.cells) if a is not None]
    return [a.tobytes() for a in arrays] + [float.hex(win.one_cell), win.lo, win.hi]


def _check_shared_windows(cfg, job, delta0, monkeypatch):
    """Each window of a shared lattice equals the window built alone; returns
    the largest node count seen and the kinds built."""
    most, kinds = 0, set()
    for (sigma, mv, zeta, d0, r1), spans, wins in _pair_windows(cfg, job, delta0, monkeypatch):
        assert len(wins) == len(spans)
        for (s, z_cap, kind), win in zip(spans, wins):
            alone = build_window(sigma, mv, zeta, s, z_cap, d0, r1, kind)
            assert _window_bits(win) == _window_bits(alone), (job, delta0, kind)
            if win is not None and win.nodes.size:  # a plain slice: no node filtered
                assert win.lo <= win.nodes[0] and win.nodes[-1] <= win.hi < sigma * mv
            most = max(most, 0 if win is None else win.nodes.size)
            kinds.add(kind)
    return most, kinds


def test_shared_lattice_windows_match_standalone(cfg, monkeypatch):
    # the first, last and worst pair of every set, at both grid steps:
    # each window cut from a width's shared lattice is, bit for bit
    # (nodes, distances, grid, cells), the window built on its own; then
    # again on short first prefixes, so the lattice grows pass by pass
    worst = {name: index for name, index, _ in PARENT_WORST_PAIRS}
    for short in (False, True):
        if short:
            _short_first_prefix(monkeypatch)
        most = 0
        for name in SET_NAMES:
            jobs = sweep_pairs(cfg, [name])
            for i in sorted({0, len(jobs) - 1, worst[name]}):
                for delta0 in (1.0, 0.1):
                    most = max(most, _check_shared_windows(cfg, jobs[i], delta0, monkeypatch)[0])
    # windows run past the short first prefix and take a later pass
    assert most > certify._MIN_PREFIX


def test_shared_lattice_with_pair_scale_cut(cfg, monkeypatch):
    # S1 pinned halfway into the b4 window (as in the tail-branch test):
    # the b6 window and its b3 tail share the lattice too
    job = sweep_pairs(cfg, ["sigma10"])[0]
    z2, z_cap = next(
        (spans[0][0], spans[0][1]) for _, spans, _ in _pair_windows(cfg, job, None, monkeypatch)
    )
    monkeypatch.setattr(ExperimentConfig, "s1", lambda self, sigma: 0.5 * (z2 + z_cap))
    for delta0 in (None, 0.1):
        _, kinds = _check_shared_windows(cfg, job, delta0, monkeypatch)
        assert kinds == {"b3", "b4", "b5", "b6"}


def test_one_crossing_solve_per_width(cfg, monkeypatch):
    # sigma6's first pair: a width whose windows keep nodes solves its
    # lattice in one z_crossing_vec call, however many windows use it
    solved = []
    solve = certify.z_crossing_vec

    def counting(omega_inv, sigma, mv, zeta):
        solved.append(sigma)
        return solve(omega_inv, sigma, mv, zeta)

    monkeypatch.setattr(certify, "z_crossing_vec", counting)
    built = _pair_windows(cfg, sweep_pairs(cfg, ["sigma6"])[0], None, monkeypatch)
    with_nodes = [
        (args[0], sum(w.nodes.size > 0 for w in wins if w is not None))
        for args, _, wins in built
        if any(w is not None and w.nodes.size for w in wins)
    ]
    assert solved == [sigma for sigma, _ in with_nodes]
    # at least one width serves several node windows from its one solve
    assert max(count for _, count in with_nodes) >= 2


def test_doubling_prefixes_solve_few_nodes_of_long_windows(cfg, monkeypatch):
    # sigma6's first pair at delta0 = 0.1: its b4 and b5 windows span
    # ~20,000 nodes each and stop after ~900, so the prefixes up to the
    # predicted stop solve ~1,000 crossings; solving a window's whole
    # grid would solve ~20,000
    solved = []
    solve = certify.z_crossing_vec

    def counting(omega_inv, sigma, mv, zeta):
        solved.append(np.size(omega_inv))
        return solve(omega_inv, sigma, mv, zeta)

    monkeypatch.setattr(certify, "z_crossing_vec", counting)
    built = _pair_windows(cfg, sweep_pairs(cfg, ["sigma6"])[0], 0.1, monkeypatch)
    assert 0 < sum(solved) < 2048
    long = 0
    for (sigma, mv, zeta, d0, r1), spans, wins in built:
        for (s, z_cap, kind), win in zip(spans, wins):
            rho_s, rho_cap = rho(sigma, mv, s), rho(sigma, mv, z_cap)
            _, n = certify._layout_window(sigma, mv, zeta, s, z_cap, rho_s, rho_cap, d0, r1, kind)
            if n is not None and n[1] - n[0] + 1 > 19_000:
                long += 1
                assert 128 < win.nodes.size < 2048
    assert long == 2


# windows (sigma, mv, zeta, s, z_cap, delta0) with zeta < 0 whose
# rescaled range [lo, hi] holds sigma*mv, where no crossing exists: their
# nodes end below it (the first at 0.99499, the last with no node left)
_EDGE_WINDOWS = [
    (1.0, 1.0, -0.1, 0.0, 10.0, 0.01),
    (1.0, 1.0, -0.1, 0.0, 10.0, 3e-4),
    (2.0, 0.75, -0.3, 0.2, 30.0, 0.05),
    (1.0, 1.0, -0.1, z_crossing(0.9, 1.0, 1.0, -0.1), 10.0, 0.5),
]
# sha256 over float.hex of their nodes, distances, grids and every
# kind's majorant, as full grids and built for b4, b5 and b3 (r1 = 2);
# recorded when the lattice, not the layout, ended the nodes there
_GOLDEN_EDGE_SHA256 = "9bf7f12690b02659667d6de8235997ab8f73adf41ab64dfd1f4c3dad4ee8a9e6"


def test_sigma_mv_edge_windows_match_golden_digest():
    lines, ends = [], []
    for sigma, mv, zeta, s, z_cap, delta0 in _EDGE_WINDOWS:
        builds = ((build_full_window, "b4"), (build_window, "b4"), (build_window, "b5"), (build_window, "b3"))
        for build, kind in builds:
            win = build(sigma, mv, zeta, s, z_cap, delta0, 2.0, kind)
            assert win.lo < sigma * mv <= win.hi
            assert np.all(win.nodes < sigma * mv)
            arrays = [win.nodes, win.x] + ([] if win.grid is None else [win.grid])
            bits = [" ".join(map(float.hex, a.ravel().tolist())) for a in arrays]
            bits += [float.hex(grid_majorant(win, k)) for k in ("b3", "b4", "b5", "b6")]
            lines.append(" | ".join(bits))
            ends.append(win.nodes.size)
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == _GOLDEN_EDGE_SHA256
    # the full grids run up to the edge below sigma*mv
    assert ends[::4] == [98, 3300, 43, 0]


# first prefixes forced on every window, as (_STOP_MARGIN, _MIN_PREFIX):
# one node, 16 nodes, the predicted stop, and the whole node range
_FORCED_PREFIXES = (
    (-math.inf, 1),
    (-math.inf, 16),
    (certify._STOP_MARGIN, certify._MIN_PREFIX),
    (math.inf, 1),
)


@pytest.mark.parametrize("kind", ["b3", "b4", "b5", "b6"])
def test_window_bits_do_not_depend_on_the_first_prefix(kind, monkeypatch):
    # a window keeps no state from one prefix to the next, and its stop
    # test runs at every node up to where it fires: whatever its first
    # prefix, it ends on the same node with the same floats
    windows = _random_window_tuples(40, 711) + _long_window_tuples(20, 712)
    windows += [(*w, 2.0) for w in _EDGE_WINDOWS]
    solve = certify._solve_window
    bits, passes = [], []
    for margin, least in _FORCED_PREFIXES:
        monkeypatch.setattr(certify, "_STOP_MARGIN", margin)
        monkeypatch.setattr(certify, "_MIN_PREFIX", least)
        calls = []
        monkeypatch.setattr(certify, "_solve_window", lambda *a: calls.append(1) or solve(*a))
        wins = [build_window(*w, kind) for w in windows]
        bits.append(
            [_window_bits(w) + [float.hex(grid_majorant(w, k)) for k in ("b3", "b4", "b5", "b6")] for w in wins]
        )
        passes.append(len(calls))
    assert bits[1:] == bits[:-1]
    # the one-node prefixes double many times, the whole range takes one
    # pass a window
    with_nodes = sum(w is not None and w.nodes.size > 0 for w in wins)
    assert passes[0] > passes[1] > passes[3] == with_nodes


def test_every_node_window_takes_one_pass(cfg, monkeypatch):
    # the first prefix reaches the node where the stop test fires, or the
    # window's last node: on the first, last and worst pair of every set
    # at both grid steps, and on sigma6's first pair at delta0 = 0.01,
    # each node window is solved in one pass and each width's lattice in
    # one z_crossing_vec call
    solved, crossed = [], []
    solve, crossings = certify._solve_window, certify.z_crossing_vec
    monkeypatch.setattr(certify, "_solve_window", lambda win, *a: solved.append(win) or solve(win, *a))
    monkeypatch.setattr(
        certify, "z_crossing_vec", lambda om, sigma, *a: crossed.append(sigma) or crossings(om, sigma, *a)
    )
    worst = {name: index for name, index, _ in PARENT_WORST_PAIRS}
    cases = [(sweep_pairs(cfg, ["sigma6"])[0], 0.01)]
    for name in SET_NAMES:
        jobs = sweep_pairs(cfg, [name])
        cases += [(jobs[i], d0) for i in sorted({0, len(jobs) - 1, worst[name]}) for d0 in (None, 0.1)]
    windows = 0
    for job, delta0 in cases:
        solved.clear()
        crossed.clear()
        built = _pair_windows(cfg, job, delta0, monkeypatch)
        per_width = [[w for w in wins if w is not None and w.nodes.size] for _, _, wins in built]
        assert [id(w) for w in solved] == [id(w) for wins in per_width for w in wins], (job, delta0)
        assert crossed == [args[0] for (args, _, _), wins in zip(built, per_width) if wins]
        windows += len(solved)
    assert windows >= 50


def test_predicted_prefix_clamps_overflow_to_the_node_range():
    # the predicted stop is clamped to the node range before it becomes
    # an integer: the hole-weight term over delta0 overflows here (while
    # hi^2 / delta0 does not), so the window takes its whole strided range
    sigma, mv, zeta, s, z_cap, r1, delta0 = 1.0, 1.0, 0.1, 0.2, 1e4, 1e5, 1e-300
    rho_s = rho(sigma, mv, s)
    assert (r1 * r1 / 2.0) * rho_s * rho_s * 2.0 / delta0 == math.inf
    win = build_window(sigma, mv, zeta, s, z_cap, delta0, r1, "b4")
    assert math.isfinite(win.hi * win.hi / delta0)
    assert 0 < win.nodes.size <= certify.NODE_CAP
    assert math.isfinite(grid_majorant(win, "b4"))
    # a grid step coarser than the window: no node, the one cell
    coarse = build_window(sigma, mv, zeta, s, z_cap, 1e3, r1, "b4")
    assert coarse.nodes.size == 0 and grid_majorant(coarse, "b4") == coarse.one_cell
    cfg = get_config("k2", "e1")
    res = check_pair(cfg, *sweep_pairs(cfg, ["sigma6"])[0], delta0=1e3)
    assert res.flags == "ok" and math.isfinite(res.margin_log10)


@pytest.mark.parametrize("delta0", [1e-305, 1e-304])
def test_extreme_delta0_window_ends_within_node_cap(delta0):
    # past 2^53 a step of 1 no longer moves the float n * delta0: the
    # node range's corrections step to the next float index and end, and
    # the stride, an integer ceiling, keeps the window within NODE_CAP
    def give_up(signum, frame):
        raise TimeoutError(f"the window at delta0={delta0!r} did not return")

    old = signal.signal(signal.SIGALRM, give_up)
    signal.alarm(10)
    try:
        win = build_window(1.0, 1.0, 0.1, 0.2, 1e4, delta0, 1e4, "b4")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    assert 0 < win.nodes.size <= certify.NODE_CAP
    assert math.isfinite(grid_majorant(win, "b4"))


def test_window_between_strided_nodes_keeps_none(monkeypatch):
    # a stride of 800 lattice steps skips the narrow second window
    # entirely: it keeps no nodes and falls back to its one cell
    monkeypatch.setattr(certify, "NODE_CAP", 50)
    sigma, mv, zeta, delta0 = 1.0, 100.0, 0.1, 0.01
    spans = [
        (z_crossing(0.2, sigma, mv, zeta), z_crossing(20.0, sigma, mv, zeta), "b4"),
        (z_crossing(5.0, sigma, mv, zeta), z_crossing(5.01, sigma, mv, zeta), "b4"),
    ]
    rho_at = {z: rho(sigma, mv, z) for span in spans for z in span[:2]}
    wide, narrow = certify._build_windows(sigma, mv, zeta, delta0, spans, 2.0, rho_at)
    assert 0 < wide.nodes.size <= 50
    assert narrow.nodes.size == 0 and narrow.grid is None
    rho_cap = rho(sigma, mv, narrow.z_cap)
    one = certify._cell_logs(narrow.z_cap - narrow.s, narrow.lo ** 2 / 2.0, rho_cap, narrow.hi, 2.0, "b4")
    assert grid_majorant(narrow, "b4") == mul_up(one, certify._PREFACTOR["b4"])


def test_pair_result_pickles(cfg):
    set_name, index, mu1, mu2, mu3 = sweep_pairs(cfg, ["sigma11"])[0]
    res = check_pair(cfg, set_name, index, mu1, mu2, mu3)
    back = pickle.loads(pickle.dumps(res))
    assert back.csv_row() == res.csv_row()
    assert back.margin_log10 == res.margin_log10
    assert back.passed == res.passed


# ----------------------------------------------------------------------
# sweep plumbing
# ----------------------------------------------------------------------


def test_sweep_small_sets_deterministic_across_jobs(cfg):
    serial = sweep(cfg, ["sigma9", "sigma10"], jobs=1)
    parallel = sweep(cfg, ["sigma9", "sigma10"], jobs=2)
    want = FROZEN_PAIR_COUNTS["sigma9"] + FROZEN_PAIR_COUNTS["sigma10"]
    assert len(serial) == want
    assert [r.csv_row() for r in serial] == [r.csv_row() for r in parallel]
    assert all(r.passed for r in serial)
    # deterministic (set, index) order
    keys = [(r.set_name, r.index) for r in serial]
    assert keys == sorted(keys, key=lambda k: (k[0] != "sigma9", k[1]))


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_runs_a_repeated_set_once(cfg, jobs):
    got = sweep(cfg, ["sigma10", "sigma9", "sigma10"], jobs=jobs)
    keys = [(r.set_name, r.index) for r in got]
    assert keys == [
        (name, i) for name in ("sigma10", "sigma9") for i in range(FROZEN_PAIR_COUNTS[name])
    ]
    want = sweep(cfg, ["sigma10", "sigma9"], jobs=1)
    assert [r.csv_row() for r in got] == [r.csv_row() for r in want]


def test_write_csv_round_trip(cfg, tmp_path):
    results = sweep(cfg, ["sigma10"], jobs=1)
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    write_csv(results, str(p1))
    write_csv(results, str(p2))
    data = p1.read_bytes()
    assert data == p2.read_bytes()
    lines = data.decode().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == len(results) + 1
    assert all(line.endswith(",pass") for line in lines[1:])


def _reference_csv(results):
    """The certificate CSV as csv.writer writes it, each row rendered on its own.

    The reported values are printed by the mpmath reference, not by
    ``sci_strings``: the bytes share no rendering code with ``write_csv``.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in results:
        logs = (r.lhs_interacting, r.rhs_interacting, r.lhs_outgoing, r.rhs_outgoing)
        writer.writerow(
            [r.set_name, f"{r.mu1:.17g}", f"{r.mu2:.17g}", f"{r.mu3:.17g}", r.flags]
            + ["0" if v.is_zero else mp_sci_string(v.log_mag) for v in logs]
            + [f"{r.margin_log10:.6f}", "pass" if r.passed else "FAIL"]
        )
    return buf.getvalue().encode("utf-8")


@pytest.mark.parametrize("magnet, energy", ALL_COMBOS, ids=[f"{m}-{e}" for m, e in ALL_COMBOS])
def test_write_csv_matches_csv_writer_for_every_config(magnet, energy, tmp_path):
    # seeded pairs of every set (passing and failing ones alike)
    cfg = get_config(magnet, energy)
    rng = random.Random(3)
    results = []
    for name in SET_NAMES:
        jobs = sweep_pairs(cfg, [name])
        results += [check_pair(cfg, *jobs[i]) for i in sorted(rng.sample(range(len(jobs)), min(2, len(jobs))))]
    path = tmp_path / "pairs.csv"
    write_csv(results, str(path))
    assert path.read_bytes() == _reference_csv(results)


def test_write_csv_quotes_text_fields_as_csv_writer(cfg, tmp_path):
    # set names and flags that need quoting (or not), repeated across
    # rows, and non-ASCII text
    base = sweep(cfg, ["sigma10"], jobs=1)
    texts = ["a,b", 'say "hi"', "two\nlines", "cr\rhere", "ünï σ×10", "", "plain", "a,b", ',"\r\n']
    results = [
        dataclasses.replace(base[i % len(base)], set_name=t, flags=texts[-1 - i])
        for i, t in enumerate(texts)
    ]
    path = tmp_path / "pairs.csv"
    write_csv(results, str(path))
    assert path.read_bytes() == _reference_csv(results)


def test_csv_rows_keep_signed_zero_widths(cfg, tmp_path):
    # 0.0 and -0.0 compare equal, but each width prints with its own sign
    res = sweep(cfg, ["sigma10"], jobs=1)[0]
    results = [
        dataclasses.replace(res, mu1=0.0, mu2=-0.0, mu3=0.0),
        dataclasses.replace(res, mu1=-0.0, mu2=0.0, mu3=-0.0),
        res,
    ]
    rows = csv_rows(results)
    assert [row[1:4] for row in rows[:2]] == [["0", "-0", "0"], ["-0", "0", "-0"]]
    assert [r.csv_row() for r in results] == rows
    path = tmp_path / "pairs.csv"
    write_csv(results, str(path))
    assert path.read_bytes() == _reference_csv(results)


def test_csv_rows_of_no_result():
    assert csv_rows([]) == []


# sha256 of write_csv(sweep(cfg, SETS)) for the headline config, as printed
# by the 50-digit Decimal rendering alone (before its float fast path)
_GOLDEN_CSV_SHA256 = {
    ("sigma10",): "5e4b1bde3ea54b279800d7cd604571457398ced821dec8a1fd1286a7f87800b5",
    ("sigma10", "sigma11"): "d0cccc3f7a33018ebb67e8561d7d21137bbedcbf82b76f00368b58518570a3be",
}


@pytest.mark.parametrize("sets", sorted(_GOLDEN_CSV_SHA256), ids="+".join)
def test_write_csv_matches_golden_digest(cfg, tmp_path, decimal_calls, sets):
    path = tmp_path / "pairs.csv"
    write_csv(sweep(cfg, list(sets), jobs=1), str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == _GOLDEN_CSV_SHA256[sets]
    assert decimal_calls == []  # no cell sits in the rounding-tie band


# sha256 over float.hex of each listed pair's four logs and margin, and
# its flags: the first and last pair of every set and the interior worst
# pairs of sigma1-3, re-recorded when the cells were summed by one
# guarded log-sum-exp and the allowance's sums took one guarded step
# down instead of two (no margin fell; the CSV bytes did not change)
_GOLDEN_PAIR_BITS_SHA256 = "79e23bdad8c812e937727dce2afcc3c157168b9185c8d13859eeabbf6f66c6a8"
_INTERIOR_WORST = {"sigma1": 2670, "sigma2": 2368, "sigma3": 15129}


def test_check_pair_matches_golden_bits(cfg):
    lines = []
    for name in SET_NAMES:
        jobs = sweep_pairs(cfg, [name])
        picks = sorted({0, len(jobs) - 1, _INTERIOR_WORST.get(name, 0)})
        for i in picks:
            res = check_pair(cfg, *jobs[i])
            logs = (res.lhs_interacting, res.rhs_interacting, res.lhs_outgoing, res.rhs_outgoing)
            bits = [float.hex(v.log_mag) for v in logs] + [float.hex(res.margin_log10)]
            lines.append(" ".join([name, str(i), *bits, res.flags]))
    assert len(lines) == 24
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == _GOLDEN_PAIR_BITS_SHA256


class _RecordingPool:
    """Stand-in for ProcessPoolExecutor: records max_workers, maps in process."""

    made = []

    def __init__(self, max_workers):
        self.made.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable, chunksize=1):
        return map(fn, iterable)


@pytest.mark.parametrize(
    "jobs, cpus, want",
    [
        (5000, 2, [2]),  # clamped to the CPU count
        (5000, 64, [3]),  # clamped to sigma10's 3 pairs
        (2, 64, [2]),
        (5000, 1, []),  # one worker: no pool at all
        (5000, None, []),  # unknown CPU count counts as one
        (1, 64, []),
    ],
)
def test_sweep_clamps_workers(cfg, monkeypatch, jobs, cpus, want):
    monkeypatch.setattr(_RecordingPool, "made", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(certify.os, "cpu_count", lambda: cpus)
    rows = [r.csv_row() for r in sweep(cfg, ["sigma10"], jobs=jobs)]
    assert _RecordingPool.made == want
    assert len(rows) == FROZEN_PAIR_COUNTS["sigma10"]


def test_sweep_of_no_set_is_empty(cfg):
    # an empty list names no set; only None means every set
    assert sweep(cfg, []) == []


def test_csv_columns_frozen():
    assert CSV_COLUMNS == (
        "set",
        "mu1",
        "mu2",
        "mu3",
        "hypothesis_flags",
        "lhs_interacting",
        "rhs_interacting",
        "lhs_outgoing",
        "rhs_outgoing",
        "margin",
        "pass",
    )


# sha256 over the same per-pair bits, for each of the six configs: the
# first and last pair of every set, ten seeded interior pairs of each
# (all of sigma10's), and the pairs with each magnet's worst margins
# (k2's sigma6 and sigma8 minima are those sets' first pairs)
_SIX_CONFIG_PAIR_BITS_SHA256 = {
    "k1/e1": "be16ce7bbf28ece48d34d780dfe1c2c8b315b7c0d2a0c175324734b98f77b22b",
    "k1/e2": "a687d50cfa46a16cbe864159daa4f84d3d8a5878baa7726a295c19a357a3f00c",
    "k1/e3": "6cc0e5d7cf86a8a3b60e462efbc8488cc25fcd7051b2a264e6c7dace10b32fad",
    "k2/e1": "7bcb2e824f4f9c94e5c4c7cf561cb3116555ca47deb8a1f59ee54725d74e5bdd",
    "k2/e2": "5d838308ff64c284b5c114c7fcd750adec389e580162766ef92cd91c46234896",
    "k2/e3": "ff7cdb6a18b9715c694001a969038b37b77431d315e3e704564e281933f1349a",
}
_WORST_PAIRS = {"k1": {"sigma3": (14571,)}, "k2": {"sigma3": (15128, 15129)}}


@pytest.mark.parametrize("magnet, energy", ALL_COMBOS, ids=[f"{m}-{e}" for m, e in ALL_COMBOS])
def test_check_pair_bits_for_every_config(magnet, energy):
    cfg = get_config(magnet, energy)
    rng = random.Random(1)
    lines = []
    for name in SET_NAMES:
        jobs = sweep_pairs(cfg, [name])
        interior = rng.sample(range(1, len(jobs) - 1), min(10, max(0, len(jobs) - 2)))
        picks = {0, len(jobs) - 1, *interior, *_WORST_PAIRS[magnet].get(name, ())}
        for i in sorted(picks):
            res = check_pair(cfg, *jobs[i])
            logs = (res.lhs_interacting, res.rhs_interacting, res.lhs_outgoing, res.rhs_outgoing)
            bits = [float.hex(v.log_mag) for v in logs] + [float.hex(res.margin_log10)]
            lines.append(" ".join([name, str(i), *bits, res.flags]))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == _SIX_CONFIG_PAIR_BITS_SHA256[f"{magnet}/{energy}"]
