"""The inputs of the golden digests, and the digests themselves.

The field digest (``tests/test_fields.py``), the bound, envelope and
threshold digests (``tests/test_bounds.py``), and the sigma*mv edge
window and pair bits digests (``tests/test_certify.py``) read their
points, widths, targets, windows and pairs from here, and so do the
checks that a single cell, and a crossing, on floats has the bits of
the same element of an array call, and the one-ulp checks of the cell
ufuncs and of the fold's ``np.exp``.  This module imports only numpy,
mpmath and the package, so a fresh interpreter with a lower numpy CPU
kernel forced recomputes them quickly:

    NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR" \
        PYTHONPATH=src:tests python tests/golden.py

prints the kernel of float64 ``np.exp`` and ``np.log``, whether the
package imported ``numpy.polynomial``, the six digests, the cells and
the crossings whose float bits differ, and the worst ulps of ``np.log``
and ``np.exp``, as JSON.  The digest functions run the loops
of those tests without the tests' extra checks;
``tests/test_kernels.py`` compares what they print with the tests'
golden constants.
"""

import hashlib
import itertools
import json
import math
import sys

import mpmath
import numpy as np

from abcertify import certify
from abcertify.bounds import (
    REGIMES, angle_table, envelope_sides, final_bound, interaction_probability, plateau_interval,
    radius_table, regime_bound, size_table,
)
from abcertify.config import BEAMS, MAGNETS, get_config
from abcertify.fields import FieldModel, ring_tail
from abcertify.kinematics import rho, z_crossing, z_of_sigma
from abcertify.partition import SET_NAMES, sweep_pairs

COMBOS = list(itertools.product(sorted(MAGNETS), sorted(BEAMS)))


def golden_widths(lo: float, hi: float, n: int = 40) -> list:
    """``n`` widths from lo to hi, evenly spaced in log, in Python float arithmetic.

    ``np.geomspace``'s bits depend on the CPU kernel numpy picks for
    ``np.power``, so a golden digest over its widths would move with it.
    """
    return [lo * (hi / lo) ** (i / (n - 1)) for i in range(n - 1)] + [hi]


CHI_SIGMAS = (1e-8, 1e-7, 1e-6)


def _around(v):
    """v and the floats one ulp either side of it."""
    return (math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf))


def golden_points(cfg):
    """Seeded points, every ramp breakpoint and the floats one ulp either
    side, points inside a radial and an axial ramp at once, r = 0 and
    points off the body.

    A breakpoint is computed as :func:`plateau` computes it (a - eps,
    a + eps, b - eps, b + eps), and each ramp's a, b and the support
    ends count as breakpoints too.  Breakpoint radii sit on the x1 or
    the x2 axis, where hypot returns them exactly.
    """
    m, e, d = cfg.magnet, cfg.eps_tilde, cfg.delta_tilde
    model = FieldModel(cfg)

    def ends(a, b, eps):
        return (a - eps, a + eps, b - eps, b + eps, a, b)

    radii = ends(m.r1_tilde + e, m.r2_tilde - e, e) + (m.r1_tilde, m.r2_tilde)
    heights = ends(-m.h_tilde + d, m.h_tilde - d, d) + (-m.h_tilde, m.h_tilde)
    chi_radii, chi_heights = [], []
    # profile pairs whose ramps take a grid of points inside both
    inside = [((m.r1_tilde + e, m.r2_tilde - e, e), (-m.h_tilde + d, m.h_tilde - d, d))]
    for sigma in CHI_SIGMAS:
        rad, ax = model._chi_profiles(sigma)
        chi_radii += ends(*rad)
        chi_heights += ends(*ax)
        inside.append((rad, ax))
    r_mid = 0.5 * (m.r1_tilde + m.r2_tilde)
    pts = []
    for r in itertools.chain.from_iterable(map(_around, radii + tuple(chi_radii))):
        pts += [(r, 0.0, 0.0), (0.0, r, 0.3 * m.h_tilde), (r, 0.0, m.h_tilde - d)]
    for z in itertools.chain.from_iterable(map(_around, heights + tuple(chi_heights))):
        pts += [(r_mid, 0.0, z), (0.0, 0.5 * m.r1_tilde, z), (0.0, 0.0, z)]
    for rad, ax in inside:
        for f, g in itertools.product((0.1, 0.35, 0.6, 0.85), repeat=2):
            pts += [
                (r * math.cos(0.7), r * math.sin(0.7), z)
                for r in (rad[0] - rad[2] * (1.0 - 2.0 * f), rad[1] + rad[2] * (1.0 - 2.0 * f))
                for z in (ax[0] - ax[2] * (1.0 - 2.0 * g), ax[1] + ax[2] * (1.0 - 2.0 * g))
            ]
    pts += [(0.0, 0.0, z) for z in (0.0, 0.5 * m.h_tilde, 2.0 * m.h_tilde, -3.0 * m.h_tilde)]
    pts += [
        (1.3 * m.r2_tilde, 0.0, 0.0),
        (0.0, -2.0 * m.r2_tilde, 0.5 * m.h_tilde),
        (r_mid, 0.0, 1.5 * m.h_tilde),
        (-r_mid, 0.0, -1.5 * m.h_tilde),
    ]
    rng = np.random.default_rng(53)
    for r, phi, z in zip(
        rng.uniform(0.0, 1.4 * m.r2_tilde, 40).tolist(),
        rng.uniform(0.0, 2.0 * math.pi, 40).tolist(),
        rng.uniform(-1.5 * m.h_tilde, 1.5 * m.h_tilde, 40).tolist(),
    ):
        pts.append((r * math.cos(phi), r * math.sin(phi), z))
    return model, pts


def evaluator_record(model, x):
    """float.hex of every evaluator output at x, one string."""
    out = [
        *model.b_field(x).tolist(),
        *model.b_partials(x).ravel().tolist(),
        model.a3(x),
        *model.a_potential(x).tolist(),
        *model.a3_partials(x).tolist(),
        model.flux_linked(math.hypot(float(x[0]), float(x[1]))),
    ]
    for sigma in CHI_SIGMAS:
        out += [model.chi(x, sigma), *model.chi_partials(x, sigma).tolist()]
        out.append(model.chi_curvature(x, sigma))
    words = [float.hex(float(v)) for v in out]
    try:
        words.append(float.hex(model.lambda_gauge(x)))
    except ValueError:
        words.append("no-gauge")
    return " ".join(words)


def _sha256(lines) -> str:
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode())
    return digest.hexdigest()


def field_digest() -> str:
    """The field evaluators' digest: ``evaluator_record`` at every golden point."""
    return _sha256(
        evaluator_record(model, x)
        for model, pts in (golden_points(get_config(m, e)) for m, e in COMBOS)
        for x in pts
    )


def _bits(lm: float) -> str:
    # zero prints as it did when it was a flag beside a 0.0 log
    zero = lm == -math.inf
    return f"{zero}:{(0.0 if zero else lm).hex()}"


def _bound_lines():
    for magnet, beam in COMBOS:
        cfg = get_config(magnet, beam)
        for s in golden_widths(1e-10, cfg.sigma_max):
            reports = [regime_bound(cfg, s, regime) for regime in REGIMES]
            for rep in reports + [final_bound(cfg, s)]:
                parts = list(rep._logs())
                if rep.regime == "final":
                    parts.append(interaction_probability(cfg, s))
                yield " ".join([rep.poly_value.hex()] + [_bits(t) for t in parts])


def bound_digest() -> str:
    """Every regime bound's, the headline bound's and the probability's bits."""
    return _sha256(_bound_lines())


def _envelope_lines():
    for magnet, beam in COMBOS:
        cfg = get_config(magnet, beam)
        for s in golden_widths(cfg.sigma_min, cfg.sigma_max):
            z = z_of_sigma(s, cfg)
            parts = [
                side
                for family in ("incoming", "interacting", "outgoing")
                for side in envelope_sides(cfg, family, s)
            ]
            parts += [ring_tail(cfg, s, z, z), ring_tail(cfg, s, 0.0, z)]
            yield " ".join(float.hex(v) for v in parts)


def envelope_digest() -> str:
    """Both sides of every envelope certificate and the ring tails' bits."""
    return _sha256(_envelope_lines())


TABLE_TARGETS = [*range(1, 11), 1.5, 7.25]


def threshold_outputs(cfg):
    """Both size tables at ``TABLE_TARGETS``, the plateaus at -99 and -50,
    and the angle and radius tables."""
    return (
        size_table(cfg, "big", TABLE_TARGETS),
        size_table(cfg, "small", TABLE_TARGETS),
        [plateau_interval(cfg, -99)],
        [plateau_interval(cfg, -50)],
        angle_table(cfg),
        radius_table(cfg),
    )


def threshold_digest() -> str:
    """The float.hex of every threshold output for the six configs."""
    return _sha256(
        " ".join([magnet, beam, name] + [float(x).hex() for x in row])
        for magnet, beam in COMBOS
        for name, rows in zip(
            ("big", "small", "plateau-99", "plateau-50", "angle", "radius"),
            threshold_outputs(get_config(magnet, beam)),
        )
        for row in rows
    )


def build_window(sigma, mv, zeta, s, z_cap, delta0, r1, kind):
    """One window of ``certify._build_windows``: a batch of one span."""
    rho_at = {z: rho(sigma, mv, z) for z in (s, z_cap)}
    return certify._build_windows(sigma, mv, zeta, delta0, [(s, z_cap, kind)], r1, rho_at)[0]


def build_full_window(sigma, mv, zeta, s, z_cap, delta0, r1, kind):
    """The same window with no floor and no stop test: its whole grid.

    Every node of the window is solved and kept, so its grid is the
    reference a floored or truncated window is checked against.
    """
    saved = certify._STOP_LOG, certify._FLOOR_LOG
    certify._STOP_LOG = certify._FLOOR_LOG = -math.inf
    try:
        return build_window(sigma, mv, zeta, s, z_cap, delta0, r1, kind)
    finally:
        certify._STOP_LOG, certify._FLOOR_LOG = saved


# windows (sigma, mv, zeta, s, z_cap, delta0) with zeta < 0 whose
# rescaled range [lo, hi] holds sigma*mv, where no crossing exists: their
# nodes end below it (the first at 0.99499, the last with no node left)
EDGE_WINDOWS = [
    (1.0, 1.0, -0.1, 0.0, 10.0, 0.01),
    (1.0, 1.0, -0.1, 0.0, 10.0, 3e-4),
    (2.0, 0.75, -0.3, 0.2, 30.0, 0.05),
    (1.0, 1.0, -0.1, z_crossing(0.9, 1.0, 1.0, -0.1), 10.0, 0.5),
]


def edge_window_record(win) -> str:
    """float.hex of a window's nodes, distances, grid and every kind's majorant."""
    arrays = [win.nodes, win.x] + ([] if win.grid is None else [win.grid])
    bits = [" ".join(map(float.hex, a.ravel().tolist())) for a in arrays]
    bits += [float.hex(certify.grid_majorant(win, k)) for k in ("b3", "b4", "b5", "b6")]
    return " | ".join(bits)


def edge_window_digest() -> str:
    """``edge_window_record`` of each of ``EDGE_WINDOWS``, as a full grid
    and built for b4, b5 and b3 (r1 = 2)."""
    builds = (
        (build_full_window, "b4"), (build_window, "b4"), (build_window, "b5"), (build_window, "b3"),
    )
    lines = [
        edge_window_record(build(sigma, mv, zeta, s, z_cap, delta0, 2.0, kind))
        for sigma, mv, zeta, s, z_cap, delta0 in EDGE_WINDOWS
        for build, kind in builds
    ]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# the interior pairs of sigma1-3 with those sets' smallest margins
INTERIOR_WORST = {"sigma1": 2670, "sigma2": 2368, "sigma3": 15129}


def pair_bits_lines():
    """One line per pair: the first and last pair of every k2/e1 set and
    ``INTERIOR_WORST``, with the set, the index, float.hex of the pair's
    four logs and margin, and its flags."""
    cfg = get_config("k2", "e1")
    for name in SET_NAMES:
        jobs = sweep_pairs(cfg, [name])
        for i in sorted({0, len(jobs) - 1, INTERIOR_WORST.get(name, 0)}):
            res = certify.check_pair(cfg, *jobs[i])
            logs = (res.lhs_interacting, res.rhs_interacting, res.lhs_outgoing, res.rhs_outgoing)
            bits = [float.hex(v) for v in logs] + [float.hex(res.margin_log10)]
            yield " ".join([name, str(i), *bits, res.flags])


def pair_bits_digest() -> str:
    """sha256 of ``pair_bits_lines``, joined by newlines."""
    return hashlib.sha256("\n".join(pair_bits_lines()).encode()).hexdigest()


CELL_KINDS = ("b3", "b4", "b5", "b6")
CELL_R1 = 0.5


def scalar_cell_inputs():
    """Seeded cells (gaps, decay, rho_right, w_right) across many
    magnitudes, 5% of them with a zero gap; small decays keep a one-ulp
    change of a log visible."""
    rng = np.random.default_rng(29)
    h = 10_000
    gaps = np.concatenate([10.0 ** rng.uniform(-14.0, 3.0, h), rng.uniform(0.05, 20.0, h)])
    gaps[rng.random(2 * h) < 0.05] = 0.0
    decay = np.concatenate([rng.uniform(0.0, 1.0, h), 10.0 ** rng.uniform(-3.0, 8.0, h)])
    rho_right = 10.0 ** rng.uniform(-6.0, 2.0, 2 * h)
    w_right = 10.0 ** rng.uniform(-2.0, 4.0, 2 * h)
    return gaps, decay, rho_right, w_right


def scalar_cell_mismatches() -> list:
    """(kind, index) of each ``scalar_cell_inputs`` cell whose log on
    floats -- ``certify._cell_formula`` on ``math.nextafter`` and
    ``math.sqrt`` -- differs in its bits from the same cell in one array
    call, at r1 = ``CELL_R1``."""
    gaps, decay, rho_right, w_right = scalar_cell_inputs()
    cells = list(zip(gaps.tolist(), decay.tolist(), rho_right.tolist(), w_right.tolist()))
    out = []
    for kind in CELL_KINDS:
        array = certify._cell_logs(gaps, decay, rho_right, w_right, CELL_R1, kind).tolist()
        out += [
            (kind, i) for i, (args, want) in enumerate(zip(cells, array))
            if float.hex(certify._cell_logs(*args, CELL_R1, kind)) != float.hex(want)
        ]
    return out


def crossing_draws():
    """The seeded draws of the crossing bit tests: 3,000 (omegas, sigma,
    mv, zeta), widths, momenta and offsets over the sweep's magnitudes
    and beyond, with up to four thresholds in (0, sigma*mv) each."""
    rng = np.random.default_rng(33)
    for _ in range(3000):
        sigma = 10.0 ** rng.uniform(-10.0, 0.5)
        mv = 10.0 ** rng.uniform(0.0, 12.0)
        zeta = 10.0 ** rng.uniform(-9.0, 0.0) * rng.choice([-1.0, 1.0])
        omegas = rng.uniform(1e-6, 1.0 - 1e-9, 4) * sigma * mv
        yield omegas[(omegas > 0.0) & (omegas < sigma * mv)], sigma, mv, float(zeta)


def crossing_mismatches() -> list:
    """Index of each ``crossing_draws`` threshold whose float
    ``z_crossing`` call differs in its bits from the same element of one
    array call over all the draws' thresholds, widths, momenta and
    offsets."""
    draws = list(crossing_draws())
    counts = [omegas.size for omegas, *_ in draws]
    omegas = np.concatenate([omegas for omegas, *_ in draws])
    sigma, mv, zeta = (np.repeat([d[k] for d in draws], counts) for k in (1, 2, 3))
    array = z_crossing(omegas, sigma, mv, zeta).tolist()
    floats = zip(omegas.tolist(), sigma.tolist(), mv.tolist(), zeta.tolist())
    return [i for i, (args, want) in enumerate(zip(floats, array)) if float.hex(z_crossing(*args)) != float.hex(want)]


# The arguments of the cell ufuncs over every pair of `verify --set all`
# for k2/e1 and k1/e3, widened a little: the cell widths (np.log), w +
# sqrt(pi)/2 (np.sqrt, then np.log; b5), r1 rho (np.log; b6), and the
# legs sigma^2 mv and z of np.hypot (interior cell ends) and math.hypot
# (rho, window ends).
CELL_LOG_RANGES = ((4e-22, 4e-3), (1.95, 5026.0))
CELL_SQRT_RANGE = (2.1, 3805.0)
HYPOT_LEG_RANGES = ((1e-9, 152.0), (2e-6, 4.8e-3))


def cell_ufunc_samples():
    """Seeded arguments of the cell ufuncs, 1,000 log-uniform over each
    range: ``np.log``'s (its two ranges, then the square roots of
    ``np.sqrt``'s range), ``np.sqrt``'s, and the two legs of ``np.hypot``."""
    rng = np.random.default_rng(31)

    def sample(lo, hi, n=1000):
        return np.exp(rng.uniform(math.log(lo), math.log(hi), n))

    roots = np.sqrt(sample(*CELL_SQRT_RANGE))
    logs = [*(sample(*r) for r in CELL_LOG_RANGES), roots]
    return logs, sample(*CELL_SQRT_RANGE), [sample(*r) for r in HYPOT_LEG_RANGES]


def fold_shifts():
    """Seeded shifts L - M of ``xreal.fold_add_logs``' terms: 3,000
    uniform over its whole range [-1000, 0] and 3,000 over [-40, 0],
    where the terms that move a sum lie."""
    rng = np.random.default_rng(41)
    return np.concatenate([rng.uniform(-1000.0, 0.0, 3000), rng.uniform(-40.0, 0.0, 3000)])


def worst_ulps(got, exact) -> float:
    """The largest |got - exact| over the samples, in ulps of the exact value."""
    return max(float(abs(mpmath.mpf(g) - e) / math.ulp(float(e))) for g, e in zip(got.tolist(), exact))


def ufunc_ulps() -> dict:
    """The worst error, in ulps against 200-bit mpmath, of float64
    ``np.log`` on ``cell_ufunc_samples``' log arguments and of ``np.exp``
    on ``fold_shifts``."""
    x = np.concatenate(cell_ufunc_samples()[0])
    d = fold_shifts()
    with mpmath.workprec(200):
        return {
            "log": worst_ulps(np.log(x), [mpmath.log(v) for v in x.tolist()]),
            "exp": worst_ulps(np.exp(d), [mpmath.exp(v) for v in d.tolist()]),
        }


def main() -> None:
    from numpy.lib.introspect import opt_func_info

    info = opt_func_info(func_name="^(exp|log)$", signature="float64")
    print(json.dumps({
        "kernels": {name: next(iter(sigs.values()))["current"] for name, sigs in info.items()},
        "numpy.polynomial": "numpy.polynomial" in sys.modules,
        "field": field_digest(),
        "bound": bound_digest(),
        "envelope": envelope_digest(),
        "threshold": threshold_digest(),
        "edge_windows": edge_window_digest(),
        "pair_bits": pair_bits_digest(),
        "scalar_cell_mismatches": scalar_cell_mismatches(),
        "crossing_mismatches": crossing_mismatches(),
        "ulps": ufunc_ulps(),
    }))


if __name__ == "__main__":
    main()
