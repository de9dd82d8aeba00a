"""Per-pair certificates: window grids, majorants, flags, sweep plumbing."""

import dataclasses
import hashlib
import math
import pickle

import numpy as np
import pytest

from abcertify import certify
from abcertify.certify import (
    CSV_COLUMNS,
    PairResult,
    _build_window,
    check_pair,
    discrepancy_map,
    grid_majorant,
    sweep,
    write_csv,
)
from abcertify.config import ExperimentConfig
from abcertify.kinematics import rho, z_crossing
from abcertify.partition import SET_NAMES, sweep_pairs
from abcertify.xreal import XReal, fold_add_logs, mul_up
from oracles import window_integral_quad
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
    assert _build_window(1.0, 5.0, 0.1, 2.0, 2.0, 0.5) is None
    assert _build_window(1.0, 5.0, 0.1, 2.0, 1.5, 0.5) is None


def test_build_window_degenerate_orientation():
    # a strongly negative offset puts the interval past the turning
    # point of (z - zeta) * rho(z): the rescaled window inverts and the
    # builder falls back to the one-cell majorant
    win = _build_window(1.0, 1.0, -4.0, 1.0, 2.0, 0.5)
    assert win is not None
    assert win.hi <= win.lo
    assert win.nodes.size == 0 and win.x.size == 0
    g = grid_majorant(win, 2.0, "b4")
    # built for b4, the window keeps that same value
    kept = _build_window(1.0, 1.0, -4.0, 1.0, 2.0, 0.5, 2.0, "b4")
    assert g.log_mag == kept.one_cell.log_mag == grid_majorant(kept, 2.0, "b4").log_mag


def test_build_window_node_layout(cfg):
    sigma, delta0 = 1e-7, 1.0
    zeta = cfg.h(sigma)
    win = _build_window(sigma, cfg.mv, zeta, 1e-4, 1.2e-3, delta0)
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
    full = _build_window(sigma, cfg.mv, zeta, 1e-4, 1.2e-3, 1.0)
    monkeypatch.setattr(certify, "NODE_CAP", 50)
    capped = _build_window(sigma, cfg.mv, zeta, 1e-4, 1.2e-3, 1.0)
    assert full.nodes.size > 50
    assert 0 < capped.nodes.size <= 50
    # striding keeps the endpoints of the covered range, only thins it
    assert capped.nodes[0] == full.nodes[0]
    assert capped.nodes[-1] <= full.nodes[-1]
    # a coarser grid can only raise the upper bound
    g_full = grid_majorant(full, cfg.r1, "b4")
    g_capped = grid_majorant(capped, cfg.r1, "b4")
    assert g_capped.log_mag >= g_full.log_mag - 1e-12


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
    win = _build_window(1.0, 1.0, -4.0, 1.0, 2.0, 0.5)
    r1 = 2.0
    rho_end = rho(win.sigma, win.mv, win.z_cap)
    b3, b4, b5, b6 = (grid_majorant(win, r1, k).log_mag for k in ("b3", "b4", "b5", "b6"))
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
    win = _build_window(sigma, mv, zeta, s, z_cap, delta0, r1, "b4")
    assert win.nodes.size == 0
    assert grid_majorant(win, r1, "b4") is win.one_cell
    assert len(one_cell) == 1
    grid_majorant(win, r1, "b6")
    assert len(one_cell) == 2
    # the kept value belongs to the window's r1 only
    assert grid_majorant(win, 2.0 * r1, "b4").log_mag < win.one_cell.log_mag
    assert len(one_cell) == 3
    # a window above the floor with no grid node inside it keeps the
    # value too
    sigma, mv, zeta = 1.3, 3.7, 0.11
    s = z_crossing(0.4, sigma, mv, zeta)
    z_cap = z_crossing(0.9, sigma, mv, zeta)
    win = _build_window(sigma, mv, zeta, s, z_cap, 1.0, 2.0, "b4")
    assert win.nodes.size == 0 and win.one_cell.log_mag > -500.0 * math.log(10.0)
    assert grid_majorant(win, 2.0, "b4") is win.one_cell
    assert len(one_cell) == 4


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
        win = _build_window(sigma, mv, zeta, s, z_cap, 1.0, r1, kind)
        assert win.nodes.size == 0
        got = [grid_majorant(win, r1, k).log_mag for k in ("b3", "b4", "b5", "b6")]
        assert got == [float.fromhex(e) for e in expect]


def test_grid_majorant_none_is_zero():
    assert grid_majorant(None, 1.0, "b3").is_zero


# ----------------------------------------------------------------------
# majorants dominate true integrals
# ----------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["b3", "b4", "b5", "b6"])
def test_grid_majorant_dominates_quadrature(kind):
    windows = _random_window_tuples(40, 711) + _long_window_tuples(20, 712)
    for sigma, mv, zeta, s, z_cap, delta0, r1 in windows:
        truth = window_integral_quad(kind, sigma, mv, zeta, s, z_cap, r1=r1)
        # the full grid, and the grid truncated for this kind
        for extra in ((), (r1, kind)):
            win = _build_window(sigma, mv, zeta, s, z_cap, delta0, *extra)
            bound = grid_majorant(win, r1, kind)
            assert not bound.is_zero
            assert bound.log_mag >= math.log(truth), (kind, extra, sigma, mv, zeta, s, z_cap)


@pytest.mark.parametrize("kind", ["b3", "b4", "b5", "b6"])
def test_truncated_majorant_matches_full_grid(kind):
    stopped = rebuilt = 0
    windows = _random_window_tuples(40, 711) + _long_window_tuples(20, 712)
    for sigma, mv, zeta, s, z_cap, delta0, r1 in windows:
        full = _build_window(sigma, mv, zeta, s, z_cap, delta0)
        cut = _build_window(sigma, mv, zeta, s, z_cap, delta0, r1, kind)
        # the truncated grid is a prefix of the full one
        J = cut.nodes.size
        assert np.array_equal(cut.nodes, full.nodes[:J])
        assert np.array_equal(cut.x, full.x[: cut.x.size])
        if J:
            # bit for bit: the cells before the last are the full grid's,
            # and the last is [x_J, z_cap] with node J's decay
            assert cut.grid[:, :J].tobytes() == full.grid[:, :J].tobytes()
            node = cut.nodes[-1]
            last = [z_cap - cut.x[-1], node * node / 2.0, certify._rho_np(sigma, mv, z_cap), cut.hi]
            assert cut.grid[:, J].tobytes() == np.array(last).tobytes()
        stopped += J < full.nodes.size
        rebuilt += J > certify._FIRST_CHUNK  # built again from a doubled prefix
        lm_full = grid_majorant(full, r1, kind).log_mag
        lm_cut = grid_majorant(cut, r1, kind).log_mag
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
        calls.append(cells(*args))
        return calls[-1]

    checked = 0
    for sigma, mv, zeta, s, z_cap, delta0, r1 in windows:
        win = _build_window(sigma, mv, zeta, s, z_cap, delta0, r1, kind)
        if win.nodes.size == 0:
            assert win.cells is None
            continue
        checked += 1
        assert win.cells.size == win.nodes.size + 1
        monkeypatch.setattr(certify, "_cell_logs", counting)
        kept = grid_majorant(win, r1, kind).log_mag
        assert calls == []
        fresh = grid_majorant(dataclasses.replace(win, kind=None, cells=None), r1, kind)
        assert len(calls) == 1
        assert calls.pop().tobytes() == win.cells.tobytes()
        monkeypatch.setattr(certify, "_cell_logs", cells)
        assert float.hex(kept) == float.hex(fresh.log_mag)
    assert checked >= 10


def _rebuilt_cells(win, r1, kind):
    """A window's cells rebuilt from its nodes and distances alone: the
    reference its kept grid is checked against."""
    nodes, x = win.nodes, win.x
    gaps = np.concatenate(([x[0] - win.s], np.diff(x), [win.z_cap - x[-1]]))
    decay = np.concatenate(([win.lo * win.lo / 2.0], nodes * nodes / 2.0))
    rho_right = certify._rho_np(win.sigma, win.mv, np.append(x, win.z_cap))
    return certify._cell_logs(gaps, decay, rho_right, np.append(nodes, win.hi), r1, kind)


@pytest.mark.parametrize("built_for", [None, "b3", "b4", "b5", "b6"])
def test_window_grid_matches_cells_rebuilt_from_nodes(built_for):
    # every kind's cells read off a window's kept grid equal the cells
    # rebuilt from its nodes and distances, bit for bit: b6 on a b4
    # window (check_pair's shortcut) and any kind on a window built
    # without one
    windows = _random_window_tuples(10, 711) + _long_window_tuples(10, 712)
    checked = 0
    for sigma, mv, zeta, s, z_cap, delta0, r1 in windows:
        extra = () if built_for is None else (r1, built_for)
        win = _build_window(sigma, mv, zeta, s, z_cap, delta0, *extra)
        if win.nodes.size == 0:
            continue
        checked += 1
        assert win.grid.shape == (4, win.nodes.size + 1)
        for kind in ("b3", "b4", "b5", "b6"):
            ref = _rebuilt_cells(win, r1, kind)
            assert certify._cell_logs(*win.grid, r1, kind).tobytes() == ref.tobytes()
            want = mul_up(fold_add_logs(ref), certify._PREFACTOR[kind])
            assert float.hex(grid_majorant(win, r1, kind).log_mag) == float.hex(want)
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
    win = _build_window(sigma, mv, zeta, s, z_cap, delta0, r1, kind)
    assert calls == []
    assert win.nodes.size == 0 and win.x.size == 0
    lm = grid_majorant(win, r1, kind).log_mag
    assert lm <= -500.0 * math.log(10.0)
    # the kept floor value is the one-cell majorant, computed afresh
    fresh = dataclasses.replace(win, kind=None, one_cell=None)
    assert grid_majorant(fresh, r1, kind).log_mag == lm
    # without a kind the same window solves its whole grid
    full = _build_window(sigma, mv, zeta, s, z_cap, delta0)
    assert sum(calls) == full.nodes.size > 0


def test_refinement_approaches_truth():
    sigma, mv, zeta = 1.3, 3.7, 0.11
    s = z_crossing(0.4, sigma, mv, zeta)
    z_cap = z_crossing(1.9, sigma, mv, zeta)
    r1 = 1.4 / rho(sigma, mv, z_cap)
    truth = math.log(window_integral_quad("b4", sigma, mv, zeta, s, z_cap, r1=r1))
    logs = []
    for delta0 in (1.0, 0.5, 0.25, 0.125, 0.0625):
        win = _build_window(sigma, mv, zeta, s, z_cap, delta0)
        logs.append(grid_majorant(win, r1, "b4").log_mag)
    # halving delta0 refines the grid (old nodes survive), so the upper
    # sum can only shrink; it stays above the true integral throughout
    for a, b in zip(logs, logs[1:]):
        assert b <= a + 1e-12
    assert all(lm >= truth for lm in logs)
    assert logs[-1] - truth < logs[0] - truth


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

    def recording(sigma, mv, zeta, delta0, spans, r1=None):
        windows.extend((sigma, s, z_cap, kind) for s, z_cap, kind in spans)
        return build(sigma, mv, zeta, delta0, spans, r1)

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

    def no_tail(win, r1, kind):
        return XReal.zero() if kind == "b3" else majorant(win, r1, kind)

    monkeypatch.setattr(certify, "grid_majorant", no_tail)
    cut_off = check_pair(cfg, *job)
    assert res.lhs_interacting.log_mag > cut_off.lhs_interacting.log_mag + 1.0
    assert res.lhs_outgoing.log_mag > cut_off.lhs_outgoing.log_mag + 1.0
    assert res.rhs_interacting.log_mag == cut_off.rhs_interacting.log_mag


def _pair_windows(cfg, job, delta0, monkeypatch):
    """check_pair's windows of one pair: (width args, spans, windows) per width."""
    built = []
    build = certify._build_windows

    def recording(sigma, mv, zeta, d0, spans, r1=None):
        wins = build(sigma, mv, zeta, d0, spans, r1)
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
    one_cell = None if win.one_cell is None else float.hex(win.one_cell.log_mag)
    return [a.tobytes() for a in arrays] + [one_cell, win.lo, win.hi]


def _check_shared_windows(cfg, job, delta0, monkeypatch):
    """Each window of a shared lattice equals the window built alone; returns
    the largest node count seen and the kinds built."""
    most, kinds = 0, set()
    for (sigma, mv, zeta, d0, r1), spans, wins in _pair_windows(cfg, job, delta0, monkeypatch):
        assert len(wins) == len(spans)
        for (s, z_cap, kind), win in zip(spans, wins):
            alone = _build_window(sigma, mv, zeta, s, z_cap, d0, r1, kind)
            assert _window_bits(win) == _window_bits(alone), (job, delta0, kind)
            if win is not None and win.nodes.size:  # a plain slice: no node filtered
                assert win.lo <= win.nodes[0] and win.nodes[-1] <= win.hi < sigma * mv
            most = max(most, 0 if win is None else win.nodes.size)
            kinds.add(kind)
    return most, kinds


def test_shared_lattice_windows_match_standalone(cfg, monkeypatch):
    # the first, last and worst pair of every set, at both grid steps:
    # each window cut from a width's shared lattice is, bit for bit
    # (nodes, distances, grid, cells), the window built on its own
    worst = {name: index for name, index, _ in PARENT_WORST_PAIRS}
    most = 0
    for name in SET_NAMES:
        jobs = sweep_pairs(cfg, [name])
        for i in sorted({0, len(jobs) - 1, worst[name]}):
            for delta0 in (1.0, 0.1):
                most = max(most, _check_shared_windows(cfg, jobs[i], delta0, monkeypatch)[0])
    # sigma11's windows run past the first chunk and extend the lattice
    assert most > certify._FIRST_CHUNK


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
    monkeypatch.setattr(certify, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(certify.os, "cpu_count", lambda: cpus)
    rows = [r.csv_row() for r in sweep(cfg, ["sigma10"], jobs=jobs)]
    assert _RecordingPool.made == want
    assert len(rows) == FROZEN_PAIR_COUNTS["sigma10"]


def test_discrepancy_map_orders_failures(cfg):
    passing = sweep(cfg, ["sigma10"], jobs=1)
    assert discrepancy_map(passing) == []
    bad1 = check_pair(cfg, "x", 0, 4e-5, 8e-5, 1e-6)
    bad2 = check_pair(cfg, "x", 1, 3e-11, 3e-11, 3e-11)
    mixed = passing + [bad1, bad2]
    fails = discrepancy_map(mixed)
    assert [f.index for f in fails] == [1, 0]  # worst (margin -inf) first
    assert all(not f.passed for f in fails)


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
