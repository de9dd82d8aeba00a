"""The inputs of the golden digests, and the digests themselves.

The field digest and the two bound digests (``tests/test_fields.py``,
``tests/test_bounds.py``) read their points and widths from here.  This
module imports only numpy and the package, so a fresh interpreter with
a lower numpy CPU kernel forced recomputes the three digests quickly:

    NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR" \
        PYTHONPATH=src:tests python tests/golden.py

prints the kernel of float64 ``np.exp`` and ``np.log``, whether the
package imported ``numpy.polynomial``, and the three digests, as JSON.
The digest functions run the loops of those three tests without the
tests' extra checks; ``tests/test_kernels.py`` compares what they print
with the tests' golden constants.
"""

import hashlib
import itertools
import json
import math
import sys

import numpy as np

from abcertify.bounds import REGIMES, envelope_sides, final_bound, interaction_probability, regime_bound
from abcertify.config import BEAMS, MAGNETS, get_config
from abcertify.fields import FieldModel, ring_tail
from abcertify.kinematics import z_of_sigma

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


def main() -> None:
    from numpy.lib.introspect import opt_func_info

    info = opt_func_info(func_name="^(exp|log)$", signature="float64")
    print(json.dumps({
        "kernels": {name: next(iter(sigs.values()))["current"] for name, sigs in info.items()},
        "numpy.polynomial": "numpy.polynomial" in sys.modules,
        "field": field_digest(),
        "bound": bound_digest(),
        "envelope": envelope_digest(),
    }))


if __name__ == "__main__":
    main()
