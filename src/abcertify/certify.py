"""Pairwise width-interval certificates and the full certification sweep.

For each consecutive pair (mu1, mu2) of a width grid (plus the set's
anchor width mu3), two inequalities are machine-checked: the coupling
constants at mu1 times certified upper bounds of four spreading
integrals must stay below the published allowance (a miss-the-hole
term, a thousandth/ten-millionth of the calibrated spread term, and a
1e-101 slack).  Passing every pair certifies the bound over the whole
width range.

The spreading integrals are bounded by step-function majorants on a
square-root grid: nodes Z_j = sqrt(delta0 * n) partition the packet's
co-moving window, the matching distances x_j are recovered with the
crossing solver, and each subinterval contributes its sup.  A window's
cells are summed by one guarded log-sum-exp (``fold_add_logs``) and the
pair's terms by the guarded ``add_up``, all in the extended-range log
domain and rounded upward, so every reported left-hand side is a
certified upper bound.  The allowance is assembled with the
down-rounded functions of ``xreal`` (``f64_down``, ``mul_down``,
``add_down``), so every reported right-hand side is a certified lower
bound of the published one.  A pair's certificate runs on those
log-magnitude floats throughout and wraps only its four reported values
as ``XReal``; a window built for one kind keeps its one-cell value and
its grid's cells, so each cell of a pair's majorants is computed once.

The pair certificate builds each window for one majorant kind, and only
solves the nodes that can move that kind's bound.  All three reductions
below rest on one fact: a step-function majorant is valid for *any*
increasing node subset, including the empty one, because dropping a
node merges two cells and the merged cell takes the larger of their
sups.  So each reduction can only make the certified left-hand side
larger, never invalid.

* Floor first: the majorant with no interior nodes is the one cell
  [s, z_cap] of the cell formula ``_cell_logs``, and needs only the
  window's ends, so it is computed before any node is solved and kept
  on the window.  When it already sits below 1e-500 -- hundreds of
  orders below every right-hand side -- the window keeps no nodes,
  nothing is solved or folded, and ``grid_majorant`` returns the kept
  value.
* Truncation: a window builds its grid on a prefix of its nodes (the
  first 128; while the stop test does not fire, twice as many, built
  again), and the grid ends at the first node Z_J whose remaining cell
  [x_J, z_cap], bounded by (z_cap - x_J) e^{-Z_J^2/2} times the
  weight's sup at z_cap, is below 2^-60 of the sum of the cells up to
  x_J.  A window keeps no state from one prefix to the next.  The fold
  then sums those cells plus that last cell, computed with the same
  upward rounding as every other cell.  The stop test is a plain float
  heuristic: it decides where the grid ends, never what is summed.
  Against the full grid the bound can grow by at most the last cell,
  under 2^-60 of it.
* A width's node range (the union of its windows') larger than
  ``NODE_CAP`` nodes is thinned by a uniform stride.  The cap is a
  fixed input guard: it bounds the nodes solved for any user
  ``delta0`` (``verify --delta0``).  No width of the full sweep reaches
  it.  A ``delta0`` so fine that the index Z^2/delta0 overflows a float
  raises ValueError.

All windows of one width -- b4, b5, and b6 with its b3 tail when the
pair scale cuts the window -- share sigma, mv, zeta and delta0, so their
nodes are sub-ranges of one lattice Z_n = sqrt(n delta0) and their
crossings are the same floats.  ``_build_windows`` solves that lattice
once per width, in one ``z_crossing_vec`` call that covers every
window's first prefix, and extends it by doubling only when a window
needs more; each window slices its own n-range and clips it to its own
[s, z_cap].  A window keeps its cells' geometry, so b6 on the b4 grid
takes its cells from the arrays the b4 pass built.  Without a kind,
``_build_window`` (a batch of one) solves the whole grid, so the stop
test never fires.
"""

from __future__ import annotations

import csv
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

import numpy as np

from .bounds import (
    ALLOWANCE_SCALE,
    ALLOWANCE_SIZE,
    ALLOWANCE_SLACK_EXP,
    _FAMILY_INDEX,
    _calibrated,
    calibrated_poly,
    ten_pow,
)
from .config import _PI4, _SQRT_PI, ExperimentConfig
from .fields import coupling_constants
from .kinematics import rho, z_crossing, z_crossing_vec
from .partition import SET_NAMES, sweep_pairs
from .xreal import (
    XReal,
    add_down,
    add_up,
    exp_neg_log,
    f64_down,
    f64_up,
    fold_add_logs,
    mul_down,
    mul_up,
)

__all__ = [
    "PairResult",
    "check_pair",
    "sweep",
    "write_csv",
    "CSV_COLUMNS",
    "grid_majorant",
    "majorant_window",
]

_INF = math.inf

# one-cell majorants below this (log10) skip the fine grid
_FLOOR_LOG10 = -500.0
_FLOOR_LOG = _FLOOR_LOG10 * math.log(10.0)

# grid nodes solved per window, at most (a uniform stride thins larger
# grids)
NODE_CAP = 30_000

# a grid built for one majorant kind ends at the first node whose
# remaining cell is below 2^-60 of the running sum; it is built on a
# prefix of this many nodes, doubled until the stop test fires
_STOP_LOG = -60.0 * math.log(2.0)
_FIRST_CHUNK = 128

# the per-pair constants, as upward- (prefactors, pi^1/4) or
# downward-rounded (allowance side) log magnitudes, lifted once
_LOG_PI4_RT2 = f64_up(_PI4 / math.sqrt(2.0))
_PREFACTOR = dict(
    b3=_LOG_PI4_RT2, b4=_LOG_PI4_RT2, b5=f64_up(1.0 / math.sqrt(2.0)), b6=_LOG_PI4_RT2
)
_LOG_PI4 = f64_up(_PI4)
_LOG_SIZE = f64_down(ALLOWANCE_SIZE)
_LOG_SCALE = {regime: f64_down(scale) for regime, scale in ALLOWANCE_SCALE.items()}
_LOG_SLACK = ten_pow(ALLOWANCE_SLACK_EXP, "down").log_mag


# ----------------------------------------------------------------------
# square-root-grid step majorants
# ----------------------------------------------------------------------


@dataclass
class majorant_window:
    """Precomputed geometry of one majorant window.

    ``sigma`` is the spreading width of the integrand, [s, z_cap] the
    integration interval, and lo/hi the induced window in the rescaled
    variable.  A window with nodes keeps its ``grid``: the rows gaps,
    left decay exponents, right rho and right rescaled end of its cells,
    the last cell [x_J, z_cap] included, from which ``grid_majorant``
    builds any kind's cells.  A window built for one kind keeps that
    kind, its ``r1``, its one-cell majorant (the floor test's value)
    and, when it has nodes, the logs of its cells (the stop test's
    values), so ``grid_majorant`` computes neither again.
    """

    sigma: float
    mv: float
    s: float
    z_cap: float
    lo: float
    hi: float
    nodes: np.ndarray  # rescaled grid values Z_j (may be empty)
    x: np.ndarray      # matching distances, s <= x_1 <= ... <= z_cap
    grid: Optional[np.ndarray] = None  # (4, nodes + 1): the cells' geometry
    r1: Optional[float] = None
    kind: Optional[str] = None
    one_cell: Optional[XReal] = None
    cells: Optional[np.ndarray] = None


class _Lattice:
    """The nodes Z_k = sqrt((n0 + stride k) delta0) of one width, and their crossings.

    The windows of one width share sigma, mv, zeta and delta0, so their
    nodes are sub-ranges of this one lattice and their crossings the
    same floats.  ``reserve`` solves the lattice up to a point in one
    ``z_crossing_vec`` call, extending it to at least twice its solved
    size; nodes at or past sigma*mv, where no crossing exists, end it.
    """

    def __init__(self, sigma, mv, zeta, delta0, n0, stride, size):
        self.sigma, self.mv, self.zeta, self.delta0 = sigma, mv, zeta, delta0
        self.n0, self.stride, self.size = n0, stride, size
        self.nodes = self.x = self.decay = np.empty(0)

    def reserve(self, k_end: int) -> None:
        done = self.nodes.size
        if k_end <= done or done == self.size:
            return
        idx = np.arange(done, min(self.size, max(k_end, 2 * done)), dtype=np.float64)
        nodes = np.sqrt((self.n0 + self.stride * idx) * self.delta0)
        if nodes[-1] >= self.sigma * self.mv:
            nodes = nodes[: nodes.searchsorted(self.sigma * self.mv)]
            self.size = done + nodes.size
        if nodes.size:
            x = z_crossing_vec(nodes, self.sigma, self.mv, self.zeta)
            self.nodes = np.concatenate((self.nodes, nodes))
            self.x = np.concatenate((self.x, x))
            self.decay = np.concatenate((self.decay, nodes * nodes / 2.0))


def _layout_window(sigma, mv, zeta, s, z_cap, delta0, r1, kind):
    """A window before any node is solved, and its node range n_start..n_end.

    None for an empty interval; the range is None when the window keeps
    no nodes (floored, degenerate, or no grid node inside it).
    """
    if z_cap <= s:
        return None, None
    lo = (s - zeta) * rho(sigma, mv, s)
    hi = (z_cap - zeta) * rho(sigma, mv, z_cap)
    win = majorant_window(sigma, mv, s, z_cap, lo, hi, np.empty(0), np.empty(0))
    if kind is not None:  # the floor test's one cell, kept for grid_majorant
        one_cell = grid_majorant(win, r1, kind)  # before win.kind is set: computed afresh
        win.r1, win.kind, win.one_cell = r1, kind, one_cell
        if win.one_cell.log_mag <= _FLOOR_LOG:
            return win, None
    if hi <= lo:  # degenerate: single interval, no interior nodes
        return win, None
    if not math.isfinite(hi * hi / delta0):
        raise ValueError(
            f"delta0={delta0!r} is too fine: the grid index of Z={hi:.6g} overflows a float"
        )

    # the nodes from n_start to n_end lie in [lo, hi]: the first loop
    # stops at sqrt(n delta0) >= lo or at n delta0 >= lo*lo, and then too
    # sqrt(n delta0) >= sqrt(lo*lo) == lo (binary64, correctly rounded);
    # so a window's nodes are a plain slice of its width's lattice
    n_start = math.ceil(lo * lo / delta0)
    while n_start * delta0 < lo * lo and math.sqrt(n_start * delta0) < lo:
        n_start += 1
    if n_start < 1:
        n_start = 1
    n_end = math.floor(hi * hi / delta0)
    while n_end >= n_start and math.sqrt(n_end * delta0) > hi:
        n_end -= 1
    return win, ((n_start, n_end) if n_end >= n_start else None)


def _build_windows(sigma, mv, zeta, delta0, spans, r1=None):
    """The windows (s, z_cap, kind) of one width, in order; None for an empty one.

    Their nodes come from one ``_Lattice`` over the union of their node
    ranges, whose first solve covers every window's first prefix.  A
    window with a kind builds its grid on doubling prefixes of its nodes
    and ends it at the first node whose remaining cell is negligible
    (see the module docstring); one without a kind (and r1) takes its
    whole grid.
    """
    laid = [_layout_window(sigma, mv, zeta, s, z_cap, delta0, r1, kind) for s, z_cap, kind in spans]
    ranged = [(win, n) for win, n in laid if n is not None]
    if ranged:
        n0 = min(n[0] for _, n in ranged)
        count = max(n[1] for _, n in ranged) - n0 + 1
        stride = max(1, math.ceil(count / NODE_CAP))
        lattice = _Lattice(sigma, mv, zeta, delta0, n0, stride, (count - 1) // stride + 1)
        plans = []
        for win, (n_start, n_end) in ranged:
            k_first = -((n0 - n_start) // stride)  # ceil((n_start - n0) / stride)
            total = (n_end - n0) // stride - k_first + 1
            prefix = total if win.kind is None else min(total, _FIRST_CHUNK)
            plans.append((win, k_first, total, prefix))
        lattice.reserve(max(k + p for _, k, _, p in plans))
        for win, k_first, total, prefix in plans:
            _solve_window(win, lattice, k_first, total, prefix)
    return [win for win, _ in laid]


def _build_window(
    sigma: float,
    mv: float,
    zeta: float,
    s: float,
    z_cap: float,
    delta0: float,
    r1: Optional[float] = None,
    kind: Optional[str] = None,
) -> Optional[majorant_window]:
    """Node layout for one window; None when the interval is empty.

    A batch of one for ``_build_windows``: without a ``kind`` every
    grid node is solved.  With one (and its ``r1``) the window serves
    that majorant only: it keeps no nodes when its one-cell majorant is
    already below the floor, and otherwise builds its grid on doubling
    prefixes of its nodes and ends it at the first node whose remaining
    cell is negligible (see the module docstring).
    """
    return _build_windows(sigma, mv, zeta, delta0, [(s, z_cap, kind)], r1)[0]


def _solve_window(win, lattice, k_first, total, prefix):
    """Build a window's grid on its first ``prefix`` nodes k_first, k_first + 1, ...

    The n nodes fill one (5, n + 1) buffer: the clipped distances after
    the left edge, then the grid rows, whose column n is the last cell
    [x_n, z_cap].  A grid that stops at node J < n writes its last cell
    into column J.  When the stop test does not fire and the window has
    more of its ``total`` nodes, the prefix doubles and the grid is
    built again from the lattice, so no state passes between the
    passes; the recomputed cells are the same floats.
    """
    s, z_cap, hi, kind, r1 = win.s, win.z_cap, win.hi, win.kind, win.r1
    smv, s2mv = win.sigma * win.mv, win.sigma * win.sigma * win.mv
    rho_cap = _rho_np(win.sigma, win.mv, z_cap)
    while True:
        k1 = k_first + min(total, prefix)
        lattice.reserve(k1)
        nodes = lattice.nodes[k_first:k1]
        n = nodes.size
        if n == 0:  # the lattice ended at sigma*mv
            return
        buf = np.empty((5, n + 1))
        xe, gaps, decay, rho_right, w_right = buf
        xe[0] = s
        x = np.clip(lattice.x[k_first:k1], s, z_cap, out=xe[1:])
        np.subtract(x, xe[:-1], out=gaps[:-1])
        gaps[n] = z_cap - x[-1]
        decay[0] = win.lo * win.lo / 2.0
        decay[1:] = lattice.decay[k_first:k1]
        np.divide(smv, np.hypot(s2mv, x, out=rho_right[:-1]), out=rho_right[:-1])
        rho_right[n] = rho_cap
        w_right[:-1] = nodes
        w_right[n] = hi
        end, cells = n, None
        if kind is not None:
            cells = _cell_logs(gaps, decay, rho_right, w_right, r1, kind)
            running = np.logaddexp.accumulate(cells[:-1])
            last = _cell_logs(z_cap - x, decay[1:], rho_cap, hi, r1, kind)
            hit = np.flatnonzero(last < running + _STOP_LOG)
            if hit.size:
                end = int(hit[0]) + 1
                if end < n:  # the grid ends at node `end`: its last cell
                    gaps[end], rho_right[end], w_right[end] = z_cap - x[end - 1], rho_cap, hi
                    cells[end] = last[end - 1]
                break
        if prefix >= total or n < prefix:  # all the window's nodes, or all the lattice's
            break
        prefix *= 2

    if gaps[:end].min() < 0.0:
        raise RuntimeError("grid distances lost monotonicity")
    win.nodes, win.x, win.grid = buf[4, :end], buf[0, 1 : end + 1], buf[1:, : end + 1]
    if kind is not None:
        win.cells = cells[: end + 1]


def _rho_np(sigma: float, mv: float, z):
    """``kinematics.rho`` with np.hypot, which can differ from math.hypot by an ulp."""
    return sigma * mv / np.hypot(sigma * sigma * mv, z)


def _cell_logs(gaps, decay, rho_right, w_right, r1, kind):
    """Upward-rounded logs of the step-majorant cells, before the prefactor.

    A cell of width ``gaps`` starts where the rescaled variable is
    sqrt(2 * ``decay``) and ends where the rho-weights take their sup,
    at inverse width ``rho_right``; ``w_right`` is the rescaled right
    end that carries the b5 momentum weight.  The arguments are arrays,
    or floats for a single cell.  This is the package's one cell
    formula: every majorant, the one-cell floor included, is built
    from it.

    A single cell runs the formula on plain floats (``math.nextafter``
    and ``math.sqrt``, correctly rounded like their numpy ufuncs), so it
    returns a float bit-identical to the same cell in an array call.
    Both keep ``np.log``: on a scalar it matches the array loop bit for
    bit, where ``math.log`` does not.
    """
    if isinstance(gaps, float):
        if gaps == 0.0:
            return -_INF
        return _cell_formula(math.nextafter, math.sqrt, gaps, decay, rho_right, w_right, r1, kind)
    with np.errstate(divide="ignore"):
        L = _cell_formula(np.nextafter, np.sqrt, gaps, decay, rho_right, w_right, r1, kind)
    return np.where(gaps == 0.0, -_INF, L)


def _cell_formula(nextafter, sqrt, gaps, decay, rho_right, w_right, r1, kind):
    """The body of ``_cell_logs``, on the float or array primitives given."""
    L = nextafter(np.log(gaps), _INF)
    if kind == "b5":
        wlog = nextafter(np.log(sqrt(w_right + _SQRT_PI / 2.0)), _INF)
        L = nextafter(L + wlog, _INF)
    elif kind == "b6":
        wlog = nextafter(np.log(r1 * rho_right), _INF)
        L = nextafter(L + wlog, _INF)
    L = nextafter(L - decay, _INF)
    if kind != "b3":
        e2 = (r1 * r1 / 2.0) * rho_right * rho_right
        L = nextafter(L - e2, _INF)
    return L


def grid_majorant(win: Optional[majorant_window], r1: float, kind: str) -> XReal:
    """Certified upper bound of one spreading integral over a window.

    ``kind``:
      b3  plain window integrand;
      b4  with the miss-the-hole weight exp(-(r1^2/2) rho^2);
      b5  the momentum-weighted window (carries sqrt(Z_j + sqrt(pi)/2));
      b6  b4 with an extra r1*rho factor (requires r1 rho >= 1 on the
          window, i.e. the window must end below the crossover scale).
    """
    if win is None:
        return XReal.zero()
    kept = (r1, kind) == (win.r1, win.kind)  # computed by _build_windows
    if win.nodes.size:
        L = fold_add_logs(win.cells if kept else _cell_logs(*win.grid, r1, kind))
    elif kept:
        return win.one_cell
    else:  # no interior nodes: the one cell [s, z_cap]
        rho_cap = rho(win.sigma, win.mv, win.z_cap)  # math.hypot, unlike the grid cells
        L = _cell_logs(win.z_cap - win.s, win.lo * win.lo / 2.0, rho_cap, win.hi, r1, kind)
    return XReal.from_log(mul_up(L, _PREFACTOR[kind]))


# ----------------------------------------------------------------------
# the per-pair certificate
# ----------------------------------------------------------------------

CSV_COLUMNS = (
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


@dataclass
class PairResult:
    set_name: str
    index: int
    mu1: float
    mu2: float
    mu3: float
    delta0: float
    flags: str
    lhs_interacting: XReal
    rhs_interacting: XReal
    lhs_outgoing: XReal
    rhs_outgoing: XReal
    margin_log10: float
    passed: bool
    note: str = ""

    def csv_row(self) -> List[str]:
        return [
            self.set_name,
            f"{self.mu1:.17g}",
            f"{self.mu2:.17g}",
            f"{self.mu3:.17g}",
            self.flags,
            self.lhs_interacting.to_sci_string(),
            self.rhs_interacting.to_sci_string(),
            self.lhs_outgoing.to_sci_string(),
            self.rhs_outgoing.to_sci_string(),
            f"{self.margin_log10:.6f}",
            "pass" if self.passed else "FAIL",
        ]


def _max_weight(rhos: Sequence[float], r1: float) -> float:
    """Log of max_i exp(-(r1^2/2) rho_i^2), exact."""
    return exp_neg_log(min(r1 * r1 * r ** 2 / 2.0 for r in rhos))


def _max_rho_weight(rhos: Sequence[float], r1: float) -> float:
    """Log of max_i r1 rho_i exp(-(r1^2/2) rho_i^2), rounded up."""
    best = -_INF
    for r in rhos:
        cand = mul_up(f64_up(r1 * r), exp_neg_log(r1 * r1 * r * r / 2.0))
        if cand > best:
            best = cand
    return best


def check_pair(
    cfg: ExperimentConfig,
    set_name: str,
    index: int,
    mu1: float,
    mu2: float,
    mu3: float,
    delta0: Optional[float] = None,
) -> PairResult:
    """Certify one width pair; never raises on a well-formed config.

    The one exception is a user ``delta0`` too fine to index the grid
    (ValueError, see ``_layout_window``).  Both sides are assembled on
    log-magnitude floats with the ``xreal`` functions; only the four
    reported values are wrapped as ``XReal``.
    """
    mv = cfg.mv
    r1 = cfg.r1
    sigma0 = cfg.sigma0

    flags: List[str] = []
    below = mu1 <= sigma0 and mu2 <= sigma0 and mu3 <= sigma0
    above = mu1 >= sigma0 and mu2 >= sigma0 and mu3 >= sigma0
    if not (below or above):
        flags.append("!crossover_side")
    if not ((mu1 <= mu3 and mu2 <= mu3) or (mu1 >= mu3 and mu2 >= mu3)):
        flags.append("!anchor_side")
    nu = mu1 if (mu1 <= mu3 and mu2 <= mu3) else mu2

    if delta0 is None:
        delta0 = 1.0 if mu1 * mv > 10.0 else 0.1

    try:
        h2 = cfg.h(mu2)
        omega_inv2 = cfg.omega_inv(mu2)
        if mu1 <= sigma0 and mu2 <= sigma0:
            z_cap = z_crossing(omega_inv2, mu2, mv, h2)
        else:
            z_cap = max(
                z_crossing(omega_inv2, mu1, mv, h2),
                z_crossing(omega_inv2, mu2, mv, h2),
            )
        z2 = max(
            z_crossing(1.0 / math.sqrt(2.0), nu, mv, h2),
            z_crossing(1.0 / math.sqrt(2.0), mu3, mv, h2),
        )
        z23 = max(
            z_crossing(math.sqrt(1.5), nu, mv, h2),
            z_crossing(math.sqrt(1.5), mu3, mv, h2),
        )
    except ValueError as exc:
        return PairResult(
            set_name, index, mu1, mu2, mu3, delta0, "!solver",
            XReal.zero(), XReal.zero(), XReal.zero(), XReal.zero(),
            -math.inf, False, note=str(exc),
        )

    # rho of both widths at the three window ends, each computed once
    rho_z2 = [rho(m, mv, z2) for m in (mu1, mu2)]
    rho_z23 = [rho(m, mv, z23) for m in (mu1, mu2)]
    rho_cap = [rho(m, mv, z_cap) for m in (mu1, mu2)]

    if z_cap < z23:
        flags.append("!window_order")
    for i, r in enumerate(rho_z2):
        if r1 * r < 1.0:
            flags.append(f"!hole_at_start_mu{i + 1}")
    for i, r in enumerate(rho_cap + [rho(mu3, mv, z_cap)]):
        if not r1 * r > 1.0:
            flags.append(f"!hole_at_cap_mu{i + 1}")

    # pair scale r_{nu, mu3} = min_i S1(mu_i): where the hole factor
    # stops being a contraction; the momentum-weighted window must end
    # before it.
    r_pair = min(cfg.s1(nu), cfg.s1(mu3))
    b6_end = min(r_pair, z_cap)

    # ---- grid majorants (one lattice per width in {nu, mu3}) ---------
    int_b4 = -_INF   # plain-window integrals with hole weight
    int_b5 = -_INF   # momentum-weighted window integrals
    int_b6 = -_INF   # hole-weighted with the extra r1*rho factor
    int_b3_tail = -_INF  # past the pair scale (usually empty)
    spans = [(z2, z_cap, "b4"), (z23, z_cap, "b5")]
    if b6_end < z_cap:
        spans += [(z2, b6_end, "b6"), (b6_end, z_cap, "b3")]
    for m in (nu, mu3):
        win4, win5, *cut = _build_windows(m, mv, h2, delta0, spans, r1)
        int_b4 = add_up(int_b4, grid_majorant(win4, r1, "b4").log_mag)
        if not cut:
            # the b4 grid also serves b6: its extra r1*rho factor is
            # smallest in the last cell, so b4's stop test covers b6
            int_b6 = add_up(int_b6, grid_majorant(win4, r1, "b6").log_mag)
        else:
            win6, tail = cut
            int_b6 = add_up(int_b6, grid_majorant(win6, r1, "b6").log_mag)
            int_b3_tail = add_up(int_b3_tail, grid_majorant(tail, r1, "b3").log_mag)
        int_b5 = add_up(int_b5, grid_majorant(win5, r1, "b5").log_mag)

    # ---- boundary terms ----------------------------------------------
    w_z2 = _max_weight(rho_z2, r1)
    w_z23 = _max_weight(rho_z23, r1)
    w_cap = _max_weight(rho_cap, r1)
    wr_z2 = _max_rho_weight(rho_z2, r1)
    wr_cap = _max_rho_weight(rho_cap, r1)

    T1 = mul_up(mul_up(_LOG_PI4, f64_up(z2)), w_z2)
    T2 = mul_up(mul_up(_LOG_PI4, f64_up(z_cap)), w_cap)

    # I_pp / I_ps: incoming-packet windows
    i_pp = add_up(T1, int_b4)
    i_ps = add_up(i_pp, T2)

    # I_sp / I_ss: spread-packet windows (momentum-weighted pieces)
    t1 = mul_up(mul_up(_LOG_PI4_RT2, f64_up(z23)), w_z23)
    t3 = mul_up(mul_up(_LOG_PI4, f64_up(z2)), wr_z2)
    t2 = mul_up(mul_up(_LOG_PI4_RT2, f64_up(z_cap)), w_cap)
    t4 = mul_up(mul_up(_LOG_PI4, f64_up(z_cap)), wr_cap)
    tail9 = mul_up(exp_neg_log(0.5), int_b3_tail)
    i_sp = t1
    for term in (t3, T1, int_b5, int_b6, tail9, int_b4):
        i_sp = add_up(i_sp, term)
    i_ss = add_up(add_up(add_up(i_sp, t2), t4), T2)

    # ---- the two inequalities ----------------------------------------
    c_pp, c_ps, c_sp, c_ss = coupling_constants(cfg, mu1)
    lhs1 = mul_up(f64_up(c_pp), i_pp)
    for c, i in ((c_ps / 2.0, i_ps), (c_sp, i_sp), (c_ss / 2.0, i_ss)):
        lhs1 = add_up(lhs1, mul_up(f64_up(c), i))
    lhs2 = add_up(mul_up(f64_up(c_pp + c_ps), i_pp), mul_up(f64_up(c_sp + c_ss), i_sp))

    # the published allowance of each family, rounded down
    coeffs = _calibrated(cfg)
    size = mul_down(_LOG_SIZE, exp_neg_log(r1 * r1 / (2.0 * mu1 * mu1)))
    rate2 = exp_neg_log(cfg.rate_exponent(mu2))
    rhs = []
    for regime in ("interacting", "outgoing"):
        p = max(0.0, calibrated_poly(coeffs[_FAMILY_INDEX[regime]], mu2))
        spread = mul_down(mul_down(_LOG_SCALE[regime], rate2), f64_down(p))
        rhs.append(add_down(add_down(size, spread), _LOG_SLACK))
    rhs1, rhs2 = rhs

    def _margin(lhs: float, rhs: float) -> float:
        if lhs == -_INF:
            return math.inf
        return (rhs - lhs) / math.log(10.0)

    margin = min(_margin(lhs1, rhs1), _margin(lhs2, rhs2))
    passed = lhs1 <= rhs1 and lhs2 <= rhs2 and not flags
    return PairResult(
        set_name,
        index,
        mu1,
        mu2,
        mu3,
        delta0,
        "ok" if not flags else "|".join(flags),
        XReal(lhs1),
        XReal(rhs1),
        XReal(lhs2),
        XReal(rhs2),
        margin,
        passed,
    )


# ----------------------------------------------------------------------
# the sweep
# ----------------------------------------------------------------------


def _run_job(args) -> PairResult:
    cfg, job, delta0 = args
    return check_pair(cfg, *job, delta0)


def sweep(
    cfg: ExperimentConfig,
    set_names: Optional[Sequence[str]] = None,
    delta0: Optional[float] = None,
    jobs: int = 1,
) -> List[PairResult]:
    """Certify every pair of the requested sets (default: all eleven).

    A set named twice runs once, at its first mention.  Results come
    back in (set, index) order, sets as first named, regardless of
    ``jobs``.  The worker count is ``jobs`` clamped to the CPU count and
    the number of pairs; with one worker the pairs run in this process.
    """
    names = list(dict.fromkeys(set_names or SET_NAMES))
    args = [(cfg, job, delta0) for job in sweep_pairs(cfg, names)]
    workers = min(jobs, os.cpu_count() or 1, len(args))
    if workers <= 1:
        return [_run_job(a) for a in args]
    chunk = max(1, len(args) // (workers * 8))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run_job, args, chunksize=chunk))


def write_csv(results: Iterable[PairResult], path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for res in results:
            writer.writerow(res.csv_row())


def discrepancy_map(results: Sequence[PairResult]) -> List[PairResult]:
    """The failing pairs, ordered by how badly they miss."""
    fails = [r for r in results if not r.passed]
    return sorted(fails, key=lambda r: r.margin_log10)
