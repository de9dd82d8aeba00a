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
certified upper bound.  The allowance comes from
``bounds.pair_allowance``, assembled with the down-rounded ``xreal``
functions, so every reported right-hand side is a certified lower
bound of the published one.  A pair's certificate runs on those
log-magnitude floats throughout (``grid_majorant`` returns one, -inf
for zero), and its four reported values are such floats too; a
window keeps its one-cell log and its grid's cells for the kind it was
built for, so each cell of a pair's majorants is computed once.

Every window is built for one majorant kind (at the pair's r1), and
only solves the nodes that can move that kind's bound.  All three
reductions below rest on one fact: a step-function majorant is valid
for *any* increasing node subset, including the empty one, because
dropping a node merges two cells and the merged cell takes the larger
of their sups.  So each reduction can only make the certified
left-hand side larger, never invalid.

* Floor first: the majorant with no interior nodes is the one cell
  [s, z_cap] of the cell formula ``_cell_logs``, and needs only the
  window's ends, so it is computed before any node is solved and kept
  on the window.  When it already sits below 1e-500 -- hundreds of
  orders below every right-hand side -- the window keeps no nodes,
  nothing is solved or folded, and ``grid_majorant`` returns the kept
  value.
* Truncation: the grid ends at the first node Z_J whose remaining cell
  [x_J, z_cap], bounded by (z_cap - x_J) e^{-Z_J^2/2} times the
  weight's sup at z_cap, is below 2^-60 of the sum of the cells up to
  x_J; the fold sums those cells plus that last cell, with the same
  upward rounding, so the bound exceeds the full grid's by under 2^-60
  of it.  A window is built on its nodes up to where that stop test is
  predicted to fire (Z^2/2 past the window's left decay by 60 ln 2,
  the hole weight's rise (r1^2/2)(rho(s)^2 - rho(z_cap)^2) and 8), then
  on twice as many while it does not.  It keeps no state from one
  prefix to the next, so any prefix gives the same floats: the test and
  the prediction are float heuristics that decide how far the grid is
  built, never what is summed.
* A width's node range (the union of its windows') larger than
  ``NODE_CAP`` nodes is thinned by a uniform stride.  The cap is a
  fixed input guard: it bounds the nodes solved for any user
  ``delta0`` (``verify --delta0``).  No width of the full sweep reaches
  it.  A ``delta0`` so fine that the index Z^2/delta0 overflows a float
  raises ValueError.

All windows of one width -- b4, b5, and b6 with its b3 tail when the
pair scale cuts the window -- share sigma, mv, zeta and delta0, so their
nodes are sub-ranges of one lattice Z_n = sqrt(n delta0) and their
crossings are the same floats.  A window's node range ends below
sigma*mv, where no crossing exists, so every laid-out node has one.
``_build_windows`` grows that lattice pass by pass: the first pass
solves every window's first prefix in one ``z_crossing_vec`` call, and
a later pass (only after a stop predicted too early) solves, in one
more call, the nodes that the doubled prefixes reach past it.  Each
window slices its own n-range and clips it to its own [s, z_cap].  A
window keeps its cells' geometry, so b6 on the b4 grid takes its cells
from the arrays the b4 pass built.
"""

from __future__ import annotations

import concurrent.futures
import csv
import io
import math
import os
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

import numpy as np

from .bounds import pair_allowance
from .config import _PI4, _SQRT_PI, ExperimentConfig
from .fields import coupling_constants
from .kinematics import rho, z_crossing, z_crossing_vec
from .partition import SET_NAMES, sweep_pairs
from .xreal import add_up, exp_neg_log, f64_up, fold_add_logs, mul_up, sci_strings

__all__ = [
    "PairResult",
    "check_pair",
    "sweep",
    "write_csv",
    "csv_rows",
    "csv_text",
    "CSV_COLUMNS",
    "GridTooFine",
    "grid_majorant",
    "majorant_window",
]

_INF = math.inf
_LN10 = math.log(10.0)
# the window-end thresholds of check_pair (z2, z23)
_RT2_INV = 1.0 / math.sqrt(2.0)
_SQRT_1_5 = math.sqrt(1.5)

# one-cell majorants below this (log10) skip the fine grid
_FLOOR_LOG10 = -500.0
_FLOOR_LOG = _FLOOR_LOG10 * _LN10

# grid nodes solved per window, at most (a uniform stride thins larger
# grids)
NODE_CAP = 30_000

# a grid built for one majorant kind ends at the first node whose
# remaining cell is below 2^-60 of the running sum; its first prefix runs
# this margin (a log) past the predicted stop, over _MIN_PREFIX nodes at least
_STOP_LOG = -60.0 * math.log(2.0)
_STOP_MARGIN = 8.0
_MIN_PREFIX = 16

# the decay of a cell that starts below Z = 0: the window's Gaussian
# tail there is below sqrt(2) times its value at 0 (erfc < 2), so the
# exponent is -ln(2)/2, rounded down
_NEG_DECAY = -f64_up(2.0) / 2.0

# the per-pair constants (prefactors, pi^1/4), as upward-rounded log
# magnitudes, lifted once
_LOG_PI4_RT2 = f64_up(_PI4 / math.sqrt(2.0))
_PREFACTOR = dict(
    b3=_LOG_PI4_RT2, b4=_LOG_PI4_RT2, b5=f64_up(_RT2_INV), b6=_LOG_PI4_RT2
)
_LOG_PI4 = f64_up(_PI4)
_LOG_EXP_NEG_HALF = exp_neg_log(0.5)

# the nodes and distances of every window that keeps none
_EMPTY = np.empty(0)
_EMPTY.flags.writeable = False


class GridTooFine(ValueError):
    """A ``delta0`` so fine that a window's grid index overflows a float."""


# ----------------------------------------------------------------------
# square-root-grid step majorants
# ----------------------------------------------------------------------


@dataclass(slots=True)
class majorant_window:
    """Precomputed geometry of one majorant window.

    ``sigma`` is the spreading width of the integrand, [s, z_cap] the
    integration interval, lo/hi the induced window in the rescaled
    variable, ``decay0`` the decay of its first cell (lo^2/2, or
    ``_NEG_DECAY`` for lo < 0) and ``rho_cap`` the inverse width at z_cap
    (``kinematics.rho``): the one cell, the grid's last cell and the
    stop test all take it.  A window is built for one majorant ``kind``
    at the pair's ``r1``.  It keeps the log of that kind's one-cell
    majorant (the floor test's value) and, when it has nodes, the logs
    of its cells (the stop test's values), so ``grid_majorant``
    computes neither again.  A window with nodes also keeps its
    ``grid``: the rows gaps, left decay exponents, right rho and right
    rescaled end of its cells, the last cell [x_J, z_cap] included,
    from which ``grid_majorant`` builds another kind's cells.
    """

    sigma: float
    mv: float
    s: float
    z_cap: float
    lo: float
    hi: float
    decay0: float
    rho_cap: float
    r1: float
    kind: str
    nodes: np.ndarray  # rescaled grid values Z_j (may be empty)
    x: np.ndarray      # matching distances, s <= x_1 <= ... <= z_cap
    grid: Optional[np.ndarray] = None  # (4, nodes + 1): the cells' geometry
    one_cell: Optional[float] = None
    cells: Optional[np.ndarray] = None


def _layout_window(sigma, mv, zeta, s, z_cap, rho_s, rho_cap, delta0, r1, kind):
    """A window before any node is solved, and its node range n_start..n_end.

    ``rho_s`` and ``rho_cap`` are ``kinematics.rho`` at s and z_cap.
    None for an empty interval; the range is None when the window keeps
    no nodes (floored, degenerate, or no grid node inside it).
    """
    if z_cap <= s:
        return None, None
    lo = (s - zeta) * rho_s
    hi = (z_cap - zeta) * rho_cap
    decay0 = lo * lo / 2.0 if lo >= 0.0 else _NEG_DECAY  # exp(-decay0): the tail's sup over Z >= lo
    win = majorant_window(sigma, mv, s, z_cap, lo, hi, decay0, rho_cap, r1, kind, _EMPTY, _EMPTY)
    win.one_cell = _one_cell(win, kind)  # the floor test's value, kept for grid_majorant
    if win.one_cell <= _FLOOR_LOG or hi <= lo or hi <= 0.0:  # floored, degenerate or below every node
        return win, None
    if not math.isfinite(hi * hi / delta0):
        raise GridTooFine(
            f"delta0={delta0!r} is too fine: the grid index of Z={hi:.6g} overflows a float"
        )

    # the nodes from n_start to n_end lie in [lo, hi] and below sigma*mv,
    # so each has a crossing: the first loop stops at sqrt(n delta0) >= lo
    # or at n delta0 >= lo*lo, and then too sqrt(n delta0) >= sqrt(lo*lo)
    # == lo (binary64, correctly rounded); so a window's nodes are a
    # plain slice of its width's lattice.  A correction steps to the next
    # float index (by 1 below 2^53), so n * delta0 moves and it ends.
    # A window that starts at lo <= 0 takes every node from n = 1.
    n_start = 1
    if lo > 0.0:
        n_start = math.ceil(lo * lo / delta0)
        while n_start * delta0 < lo * lo and math.sqrt(n_start * delta0) < lo:
            n_start = math.ceil(math.nextafter(n_start, _INF))
        n_start = max(n_start, 1)
    smv = sigma * mv
    top = min(hi, smv)
    n_end = math.floor(top * top / delta0)
    while n_end >= n_start and not (math.sqrt(n_end * delta0) <= hi and math.sqrt(n_end * delta0) < smv):
        n_end = math.floor(math.nextafter(n_end, 0.0))
    return win, ((n_start, n_end) if n_end >= n_start else None)


def _build_windows(sigma, mv, zeta, delta0, spans, r1, rho_at):
    """The windows (s, z_cap, kind) of one width at r1, in order; None for an empty one.

    ``rho_at`` maps each window end to the width's ``kinematics.rho``
    there.  The windows' nodes are slices of one lattice Z_k =
    sqrt((n0 + stride k) delta0) over the union of their node ranges,
    grown pass by pass.  A pass solves, in one ``z_crossing_vec`` call,
    the lattice nodes that its windows' prefixes reach and the earlier
    passes did not, and builds each window on its prefix: first up to
    its predicted stop, then on twice as many until its test fires or it ends.
    """
    laid = [_layout_window(sigma, mv, zeta, s, z, rho_at[s], rho_at[z], delta0, r1, kind)
            for s, z, kind in spans]
    ranged = [(win, n) for win, n in laid if n is not None]
    if not ranged:
        return [win for win, _ in laid]
    n0 = min(n[0] for _, n in ranged)
    stride = max(1, -(-(max(n[1] for _, n in ranged) - n0 + 1) // NODE_CAP))
    plans = []  # (window, its first lattice index, its prefix's end, its end)
    for win, (n_start, n_end) in ranged:
        k_first = -((n0 - n_start) // stride)  # ceil((n_start - n0) / stride)
        k_end = (n_end - n0) // stride + 1
        if k_first < k_end:  # else the stride skips the whole window
            # the predicted stop (module docstring), clamped as a float to the node range
            rs, rc = rho_at[win.s], win.rho_cap
            rise = _STOP_MARGIN - _STOP_LOG + (r1 * r1 / 2.0) * (rs * rs - rc * rc)
            n_stop = math.ceil(max(min(float(n_end), 2.0 * (win.decay0 + rise) / delta0), n_start))
            k1 = max(k_first + _MIN_PREFIX, (n_stop - n0 - 1) // stride + 2)  # past node n_stop
            plans.append((win, k_first, min(k_end, k1), k_end))
    nodes = x = decays = _EMPTY
    while plans:
        k = np.arange(nodes.size, max(k1 for _, _, k1, _ in plans), dtype=np.float64)
        if k.size:
            new = np.sqrt((n0 + stride * k) * delta0)
            solved = (new, z_crossing_vec(new, sigma, mv, zeta), new * new / 2.0)
            if nodes.size:  # a later pass: append to the earlier passes' nodes
                solved = [np.concatenate(pair) for pair in zip((nodes, x, decays), solved)]
            nodes, x, decays = solved
        # the windows that did not stop and have more nodes, prefix doubled
        plans = [
            (win, k_first, min(k_end, 2 * k1 - k_first), k_end)
            for win, k_first, k1, k_end in plans
            if not _solve_window(win, nodes[k_first:k1], x[k_first:k1], decays[k_first:k1])
            and k1 < k_end
        ]
    return [win for win, _ in laid]


def _solve_window(win, nodes, x, decays):
    """Build a window's grid on its n nodes; True when its stop test fires.

    The nodes fill one (5, 2, n + 1) buffer.  Its first rows hold the
    clipped distances after the left edge, then the grid rows, whose
    column n is the last cell [x_n, z_cap].  Its second rows hold in
    column j the last cell [x_j, z_cap] of a grid that ends at node j
    (column 0, the one cell [s, z_cap], is not used), and one
    ``_cell_logs`` call on both rows gives the grid's cells of the
    window's kind and the stop test's last cells; a grid that stops at
    node J < n writes its last cell into column J.  The window keeps
    the grid and cells of its latest build, and no state from an
    earlier one: a doubled prefix recomputes the same floats.
    """
    s, z_cap, hi, rho_cap = win.s, win.z_cap, win.hi, win.rho_cap
    smv, s2mv = win.sigma * win.mv, win.sigma * win.sigma * win.mv
    n = nodes.size
    buf = np.empty((5, 2, n + 1))
    xe, gaps, decay, rho_right, w_right = buf[:, 0]
    xe[0] = s
    x = np.maximum(x, s, out=xe[1:])
    np.minimum(x, z_cap, out=x)
    np.subtract(x, xe[:-1], out=gaps[:-1])
    gaps[n] = z_cap - x[-1]
    decay[0] = win.decay0
    decay[1:] = decays
    np.divide(smv, np.hypot(s2mv, x, out=rho_right[:-1]), out=rho_right[:-1])
    rho_right[n] = rho_cap
    w_right[:-1] = nodes
    w_right[n] = hi
    np.subtract(z_cap, xe, out=buf[1, 1])
    buf[3, 1] = rho_cap
    buf[4, 1] = hi
    cells, last = _cell_logs(buf[1], decay, buf[3], buf[4], win.r1, win.kind)
    running = np.logaddexp.accumulate(cells[:-1])
    running += _STOP_LOG
    hit = last[1:] < running
    j = int(hit.argmax())
    end, stopped = (j + 1, True) if hit[j] else (n, False)
    if end < n:  # the grid ends at node `end`: its last cell
        gaps[end], rho_right[end], w_right[end] = z_cap - x[end - 1], rho_cap, hi
        cells[end] = last[end]
    if gaps[:end].min() < 0.0:
        raise RuntimeError("grid distances lost monotonicity")
    win.nodes, win.x, win.grid = w_right[:end], xe[1 : end + 1], buf[1:, 0, : end + 1]
    win.cells = cells[: end + 1]
    return stopped


def _cell_logs(gaps, decay, rho_right, w_right, r1, kind):
    """Upward-rounded logs of the step-majorant cells, before the prefactor.

    A cell of width ``gaps`` starts where the rescaled variable is
    sqrt(2 * ``decay``), or below 0 for ``_NEG_DECAY``, and ends where
    the rho-weights take their sup, at inverse width ``rho_right``;
    ``w_right`` is the rescaled right end that carries the b5 momentum
    weight.  The arguments are arrays, or floats for a single cell.
    This is the package's one cell formula: every majorant, the
    one-cell floor included, is built from it.

    A single cell runs the formula on plain floats (``math.nextafter``
    and ``math.sqrt``, correctly rounded like their numpy ufuncs), so it
    returns a float bit-identical to the same cell in an array call.
    Both keep ``np.log``: on a scalar it matches the array loop bit for
    bit, where ``math.log`` does not.  Arrays are taken elementwise
    after broadcasting, so stacked rows (a (2, n + 1) ``gaps``, say)
    give each row's cells bit for bit.  Only a call with a zero gap
    silences log 0 and masks those cells to -inf.
    """
    if isinstance(gaps, float):
        if gaps == 0.0:
            return -_INF
        return _cell_formula(math.nextafter, math.sqrt, gaps, decay, rho_right, w_right, r1, kind)
    if gaps.all():
        return _cell_formula(np.nextafter, np.sqrt, gaps, decay, rho_right, w_right, r1, kind)
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


def _one_cell(win: majorant_window, kind: str) -> float:
    """Upward-rounded log of ``kind``'s majorant on the one cell [s, z_cap], prefactor included.

    The b5 momentum weight is taken at max(hi, 0): at Z <= 0 the
    weighted tail is at most sqrt(2) times its bound at Z = 0, which
    ``_NEG_DECAY`` covers.
    """
    w = win.hi if win.hi > 0.0 else 0.0
    L = _cell_logs(win.z_cap - win.s, win.decay0, win.rho_cap, w, win.r1, kind)
    return mul_up(L, _PREFACTOR[kind])


def grid_majorant(win: Optional[majorant_window], kind: str) -> float:
    """Log of a certified upper bound of one spreading integral over a window.

    An upward-rounded log magnitude, -inf for zero (no window), at the
    window's r1.  The window's own kind reads the values it kept;
    another kind's cells are built from its grid, or its one cell.

    ``kind``:
      b3  plain window integrand;
      b4  with the miss-the-hole weight exp(-(r1^2/2) rho^2);
      b5  the momentum-weighted window (carries sqrt(Z_j + sqrt(pi)/2));
      b6  b4 with an extra r1*rho factor (requires r1 rho >= 1 on the
          window, i.e. the window must end below the crossover scale).
    """
    if win is None:
        return -_INF
    kept = kind == win.kind
    if not win.nodes.size:
        return win.one_cell if kept else _one_cell(win, kind)
    L = fold_add_logs(win.cells if kept else _cell_logs(*win.grid, win.r1, kind))
    return mul_up(L, _PREFACTOR[kind])


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
    # the two sides of each inequality, as log magnitudes (-inf is zero)
    lhs_interacting: float
    rhs_interacting: float
    lhs_outgoing: float
    rhs_outgoing: float
    margin_log10: float
    passed: bool
    note: str = ""

    def csv_row(self) -> List[str]:
        return csv_rows([self])[0]


def _max_weight(ra: float, rb: float, r1: float) -> float:
    """Log of the larger of exp(-(r1^2/2) rho^2) at rho = ra, rb, exact."""
    return exp_neg_log(min(r1 * r1 * ra ** 2 / 2.0, r1 * r1 * rb ** 2 / 2.0))


def _max_rho_weight(ra: float, rb: float, r1: float) -> float:
    """Log of the larger of r1 rho exp(-(r1^2/2) rho^2) at rho = ra, rb, rounded up."""
    return max(
        mul_up(f64_up(r1 * ra), exp_neg_log(r1 * r1 * ra * ra / 2.0)),
        mul_up(f64_up(r1 * rb), exp_neg_log(r1 * r1 * rb * rb / 2.0)),
    )


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
    log-magnitude floats: the left from the ``grid_majorant`` logs and
    the boundary terms with the upward ``xreal`` steps, the right by
    ``bounds.pair_allowance``.  The four reported values are those
    log floats.
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
            z_crossing(_RT2_INV, nu, mv, h2),
            z_crossing(_RT2_INV, mu3, mv, h2),
        )
        z23 = max(
            z_crossing(_SQRT_1_5, nu, mv, h2),
            z_crossing(_SQRT_1_5, mu3, mv, h2),
        )
    except ValueError as exc:
        return PairResult(
            set_name, index, mu1, mu2, mu3, delta0, "!solver",
            -_INF, -_INF, -_INF, -_INF,
            -math.inf, False, note=str(exc),
        )

    # rho of the three widths at the three window ends, each computed once
    rho_at = {}
    for m in (mu1, mu2, mu3):
        rho_at[m] = {z2: rho(m, mv, z2), z23: rho(m, mv, z23), z_cap: rho(m, mv, z_cap)}
    at1, at2 = rho_at[mu1], rho_at[mu2]
    rho_z2, rho_z23, rho_cap = [at1[z2], at2[z2]], [at1[z23], at2[z23]], [at1[z_cap], at2[z_cap]]

    if z_cap < z23:
        flags.append("!window_order")
    for i, r in enumerate(rho_z2):
        if r1 * r < 1.0:
            flags.append(f"!hole_at_start_mu{i + 1}")
    for i, r in enumerate(rho_cap + [rho_at[mu3][z_cap]]):
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
        rho_at[nu][b6_end], rho_at[mu3][b6_end] = rho(nu, mv, b6_end), rho(mu3, mv, b6_end)
    for m in (nu, mu3):
        win4, win5, *cut = _build_windows(m, mv, h2, delta0, spans, r1, rho_at[m])
        int_b4 = add_up(int_b4, grid_majorant(win4, "b4"))
        if not cut:
            # the b4 grid also serves b6: its extra r1*rho factor is
            # smallest in the last cell, so b4's stop test covers b6
            int_b6 = add_up(int_b6, grid_majorant(win4, "b6"))
        else:
            win6, tail = cut
            int_b6 = add_up(int_b6, grid_majorant(win6, "b6"))
            int_b3_tail = add_up(int_b3_tail, grid_majorant(tail, "b3"))
        int_b5 = add_up(int_b5, grid_majorant(win5, "b5"))

    # ---- boundary terms ----------------------------------------------
    w_z2 = _max_weight(*rho_z2, r1)
    w_z23 = _max_weight(*rho_z23, r1)
    w_cap = _max_weight(*rho_cap, r1)
    wr_z2 = _max_rho_weight(*rho_z2, r1)
    wr_cap = _max_rho_weight(*rho_cap, r1)

    log_cap = f64_up(z_cap)
    pi4_z2 = mul_up(_LOG_PI4, f64_up(z2))
    pi4_cap = mul_up(_LOG_PI4, log_cap)
    T1 = mul_up(pi4_z2, w_z2)
    T2 = mul_up(pi4_cap, w_cap)

    # I_pp / I_ps: incoming-packet windows
    i_pp = add_up(T1, int_b4)
    i_ps = add_up(i_pp, T2)

    # I_sp / I_ss: spread-packet windows (momentum-weighted pieces)
    t1 = mul_up(mul_up(_LOG_PI4_RT2, f64_up(z23)), w_z23)
    t3 = mul_up(pi4_z2, wr_z2)
    t2 = mul_up(mul_up(_LOG_PI4_RT2, log_cap), w_cap)
    t4 = mul_up(pi4_cap, wr_cap)
    tail9 = mul_up(_LOG_EXP_NEG_HALF, int_b3_tail)
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

    rhs1, rhs2 = pair_allowance(cfg, mu1, mu2)

    def _margin(lhs: float, rhs: float) -> float:
        if lhs == -_INF:
            return math.inf
        return (rhs - lhs) / _LN10

    margin = min(_margin(lhs1, rhs1), _margin(lhs2, rhs2))
    passed = lhs1 <= rhs1 and lhs2 <= rhs2 and not flags
    return PairResult(
        set_name, index, mu1, mu2, mu3, delta0, "ok" if not flags else "|".join(flags),
        lhs1, rhs1, lhs2, rhs2, margin, passed,
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
    names = list(dict.fromkeys(SET_NAMES if set_names is None else set_names))
    args = [(cfg, job, delta0) for job in sweep_pairs(cfg, names)]
    workers = min(jobs, os.cpu_count() or 1, len(args))
    if workers <= 1:
        return [_run_job(a) for a in args]
    chunk = max(1, len(args) // (workers * 8))
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run_job, args, chunksize=chunk))


def csv_rows(results: Iterable[PairResult]) -> List[List[str]]:
    """The CSV rows (``CSV_COLUMNS``) of ``results``, as strings.

    One ``sci_strings`` call renders the four reported values of every
    row, and each distinct width is formatted once (distinct by its
    bits, so 0.0 and -0.0 stay apart).
    """
    results = list(results)
    sci = sci_strings([
        v for r in results
        for v in (r.lhs_interacting, r.rhs_interacting, r.lhs_outgoing, r.rhs_outgoing)
    ])
    widths = np.array([w for r in results for w in (r.mu1, r.mu2, r.mu3)], dtype=np.float64)
    bits, at = np.unique(widths.view(np.int64), return_inverse=True)
    text = [f"{w:.17g}" for w in bits.view(np.float64).tolist()]
    mu = [text[i] for i in at.tolist()]
    return [
        [r.set_name, mu1, mu2, mu3, r.flags, lhs1, rhs1, lhs2, rhs2,
         f"{r.margin_log10:.6f}", "pass" if r.passed else "FAIL"]
        for r, mu1, mu2, mu3, lhs1, rhs1, lhs2, rhs2 in zip(
            results, mu[0::3], mu[1::3], mu[2::3], sci[0::4], sci[1::4], sci[2::4], sci[3::4]
        )
    ]


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer(fh, lineterminator="\n")`` writes it in a row of two or more fields."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow((text, ""))
    return buf.getvalue()[:-2]  # less the empty field's "," and the "\n"


def csv_text(header: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    """The text ``csv.writer(fh, lineterminator="\n")`` writes for ``header`` and ``rows``.

    Fields are strings and rows have two or more of them.  A field is
    quoted (QUOTE_MINIMAL) only if it holds ``,``, ``"``, ``\r`` or
    ``\n``: a column whose concatenated fields hold none of them is
    joined as it is, and any other column has each distinct value
    quoted once, by ``csv.writer`` itself.
    """
    cols = list(zip(header, *rows))
    for c, col in enumerate(cols):
        joined = "".join(col)
        if "," in joined or '"' in joined or "\r" in joined or "\n" in joined:
            field = {v: _csv_field(v) for v in set(col)}
            cols[c] = [field[v] for v in col]
    return "\n".join(map(",".join, zip(*cols))) + "\n"


def write_csv(results: Iterable[PairResult], path: str) -> None:
    """Write the CSV (``CSV_COLUMNS`` header and ``csv_rows``) of ``results`` to ``path``."""
    text = csv_text(CSV_COLUMNS, csv_rows(results))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)
