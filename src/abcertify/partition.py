"""Decade-aware partitions of width intervals for the certificate sweep.

A partition of [a, b] uses a step proportional to the decade of its
left endpoint, so relative resolution stays roughly constant across
six orders of magnitude of packet widths.  Intervals spanning several
decades are split at the powers of ten and each piece gridded with its
own decade's step.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

from .config import ExperimentConfig

__all__ = ["decade_partition", "sigma_sets", "sweep_pairs", "SET_NAMES"]

# Relative tolerance guarding ceil() against float noise in (b - a) / step:
# without it a gap count like 1000.0000000000001 would add a phantom point.
_CEIL_FUZZ = 1.0 - 1e-12


def _order_of(a: float) -> int:
    """The integer O with 10**O <= a < 10**(O+1)."""
    if a <= 0.0 or not math.isfinite(a):
        raise ValueError(f"partition endpoints must be positive finite, got {a!r}")
    o = math.floor(math.log10(a))
    # log10 rounding can misplace exact powers of ten; fix up directly.
    if 10.0 ** o > a:
        o -= 1
    elif 10.0 ** (o + 1) <= a:
        o += 1
    return o


def _fill(a: float, b: float, step: float) -> List[float]:
    """Points a, a+step, a+2*step, ... capped and terminated by b."""
    n_gaps = max(1, math.ceil(((b - a) / step) * _CEIL_FUZZ))
    pts = [a + i * step for i in range(n_gaps)]
    pts.append(b)
    return pts


def decade_partition(a: float, b: float, n0: float) -> List[float]:
    """Partition [a, b] with step n0 * 10**(decade of the left end).

    Endpoints may come unordered; they are sorted first.  When [a, b]
    crosses powers of ten the interval is split there and each piece
    gridded with its own decade's step, so the step grows with the
    points themselves.
    """
    if n0 <= 0.0:
        raise ValueError(f"step factor must be positive, got {n0!r}")
    a, b = sorted((float(a), float(b)))
    if a == b:
        return [a]
    pts: List[float] = []
    lo = a
    while True:
        o = _order_of(lo)
        decade_end = 10.0 ** (o + 1)
        step = n0 * 10.0 ** o
        if b <= decade_end:
            pts.extend(_fill(lo, b, step))
            return pts
        pts.extend(_fill(lo, decade_end, step)[:-1])
        lo = decade_end


SET_NAMES: Tuple[str, ...] = tuple(f"sigma{i}" for i in range(1, 12))


def sigma_sets(cfg: ExperimentConfig) -> Dict[str, List[float]]:
    """The eleven width grids whose consecutive pairs the sweep certifies.

    Sets 1-10 ladder from just under the hole-radius scale down to the
    capped-rate crossover; set 11 continues below it to the smallest
    covered width.  Adjacent sets share endpoints, so together the
    pairs cover [4.5/mv, r1_tilde/2] without gaps.
    """
    r1 = cfg.r1
    L = math.log(10.0)
    sets = {
        "sigma1": decade_partition(r1 / (L * 250.0), r1 / (L * 197.0), 0.0003),
        "sigma2": decade_partition(r1 / (L * 197.0), r1 / (L * 150.0), 0.0005),
        "sigma3": decade_partition(r1 / (L * 150.0), 1e-5, 0.0008),
        "sigma4": decade_partition(1e-5, 1.1e-5, 0.0001),
        "sigma5": decade_partition(1.1e-5, 1.3e-5, 0.0002),
        "sigma6": decade_partition(1.3e-5, 1.7e-5, 0.0004),
        "sigma7": decade_partition(1.7e-5, 2e-5, 0.0008),
        "sigma8": decade_partition(2e-5, cfg.magnet.r1_tilde / 2.0, 0.0015),
        "sigma9": decade_partition(1e-6, r1 / (L * 250.0), 1000.0),
        "sigma10": decade_partition(cfg.sigma0, 1e-6, 1000.0),
        "sigma11": decade_partition(cfg.sigma_min, cfg.sigma0, 0.1),
    }
    return sets


def anchor_width(set_name: str, cfg: ExperimentConfig) -> float:
    """The third (anchor) width mu3 used when certifying pairs of a set."""
    if set_name == "sigma11":
        return cfg.sigma0
    return 1e-6


def sweep_pairs(
    cfg: ExperimentConfig, names: Sequence[str] = SET_NAMES
) -> List[Tuple[str, int, float, float, float]]:
    """All (set, index, mu1, mu2, mu3) jobs for a certificate sweep."""
    sets = sigma_sets(cfg)
    jobs: List[Tuple[str, int, float, float, float]] = []
    for name in names:
        grid = sets[name]
        mu3 = anchor_width(name, cfg)
        for i in range(len(grid) - 1):
            lo, hi = grid[i], grid[i + 1]
            jobs.append((name, i, min(lo, hi), max(lo, hi), mu3))
    return jobs
