"""Experiment description: magnet geometry, electron beam, derived cutoffs.

All lengths are in centimetres and momenta in 1/cm (CGS with hbar = 1),
matching the published Tonomura-experiment data this tool re-checks.
Two toroidal-magnet geometries and three accelerating voltages are
built in; every number can be overridden through a config file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, Mapping, Optional

import numpy as np

__all__ = [
    "Magnet",
    "Beam",
    "ExperimentConfig",
    "MAGNETS",
    "BEAMS",
    "get_config",
    "parse_config_file",
    "apply_overrides",
]

_RATE_CAP = 2000.0  # the tail-rate cap: omega_inv(sigma)**2 never exceeds it
_SQRT_2000 = math.sqrt(_RATE_CAP)
_RATE = 33.0 / 34.0  # decay-rate factor in the width-dependent exponential
_SQRT_RATE = math.sqrt(_RATE)
_SQRT_PI = math.sqrt(math.pi)  # shared with the other modules, as is _PI4
_PI4 = math.pi ** 0.25


# The width formulas of ExperimentConfig take a float or an array of
# widths: ``_OPS`` picks ``(minimum, maximum, sqrt, any)`` by the
# argument's type, numpy ufuncs for an array and ``min``/``max``/
# ``math.sqrt``/``bool`` for anything else.  Both are correctly rounded
# and each formula is written once, so element i of an array call is
# the scalar call at ``sigma[i]``, bit for bit, and a float still
# returns a Python float.
_FLOAT_OPS = (min, max, math.sqrt, bool)
_OPS = {np.ndarray: (np.minimum, np.maximum, np.sqrt, np.any)}


def _require_finite(obj, names) -> None:
    """Reject a NaN or infinite float among the named fields of a config dataclass."""
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


def _derived():
    """A constant that ``__post_init__`` computes: no argument, no repr, no comparison."""
    return field(init=False, repr=False, compare=False)


@dataclass(frozen=True)
class Magnet:
    """Toroidal magnet: inner/outer hole radii and half-height."""

    name: str
    r1_tilde: float  # inner radius of the ring (hole radius), cm
    r2_tilde: float  # outer radius of the ring, cm
    h_tilde: float   # half the ring thickness along the beam axis, cm

    def __post_init__(self):
        _require_finite(self, ("r1_tilde", "r2_tilde", "h_tilde"))
        if not (0.0 < self.r1_tilde < self.r2_tilde):
            raise ValueError(
                f"need 0 < r1_tilde < r2_tilde, got {self.r1_tilde!r}, {self.r2_tilde!r}"
            )
        if self.h_tilde <= 0.0:
            raise ValueError(f"h_tilde must be positive, got {self.h_tilde!r}")


@dataclass(frozen=True)
class Beam:
    """Electron beam at a fixed accelerating voltage."""

    name: str
    energy_kev: float
    v: float   # relativistic speed, cm/s
    mv: float  # relativistic momentum, 1/cm

    def __post_init__(self):
        _require_finite(self, ("energy_kev", "v", "mv"))
        if self.v <= 0.0 or self.mv <= 0.0:
            raise ValueError("beam speed and momentum must be positive")


# Built-in hardware.  k1/k2 are the two magnet sizes used in the
# published runs; e1/e2/e3 the three beam energies.
MAGNETS: Dict[str, Magnet] = {
    "k1": Magnet("k1", r1_tilde=1.5e-4, r2_tilde=2.5e-4, h_tilde=1e-6),
    "k2": Magnet("k2", r1_tilde=1.75e-4, r2_tilde=2.75e-4, h_tilde=1e-6),
}

BEAMS: Dict[str, Beam] = {
    "e1": Beam("e1", energy_kev=150.0, v=2.2971e10, mv=1.9842e10),
    "e2": Beam("e2", energy_kev=100.0, v=1.8755e10, mv=1.6201e10),
    "e3": Beam("e3", energy_kev=80.0, v=1.6775e10, mv=1.4491e10),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete parameter set for one certification run.

    Derived smoothing widths follow the standard selections
    (``eps_tilde`` = 0.5% of the ring's radial extent, ``delta_tilde`` =
    1% of its half-height, ``eps`` = 2% of the hole radius); the
    ``*_scale`` knobs let parameter sweeps stretch them.  The nine
    derived constants are computed once, when the config is built, and
    are plain attributes: not arguments, not compared or hashed.  A
    changed config is a new one (``dataclasses.replace``), with its own.
    """

    magnet: Magnet
    beam: Beam
    flux: float = math.pi          # enclosed flux (modulo 2*pi), |flux| < 2*pi
    eps_scale: float = 1.0         # multiplies eps (fattening of the ring)
    delta_scale: float = 1.0       # multiplies delta(sigma) (axial cutoff width)

    # fixed smoothing widths
    eps_tilde: float = _derived()    # radial smoothing width of the field profile
    delta_tilde: float = _derived()  # axial smoothing width of the field profile
    eps: float = _derived()          # radial fattening of the magnet used by the space cutoff
    # fattened-magnet geometry
    r1: float = _derived()  # inner radius of the fattened magnet (effective hole radius)
    r2: float = _derived()  # outer radius of the fattened magnet
    # beam-dependent constants
    mv: float = _derived()
    sigma0: float = _derived()     # width at which the tail-rate cap 2000 starts to bind
    sigma_min: float = _derived()  # smallest width covered by the sweep certificates
    sigma_max: float = _derived()  # largest width covered by the sweep certificates

    def __post_init__(self):
        _require_finite(self, ("flux", "eps_scale", "delta_scale"))
        if not abs(self.flux) < 2.0 * math.pi:
            raise ValueError(f"|flux| must be < 2*pi, got {self.flux!r}")
        if self.eps_scale <= 0.0 or self.delta_scale <= 0.0:
            raise ValueError("eps_scale and delta_scale must be positive")
        m, mv = self.magnet, self.beam.mv
        d = vars(self)  # a frozen dataclass: the constants go into its dict
        d["eps_tilde"] = (m.r2_tilde - m.r1_tilde) / 200.0
        d["delta_tilde"] = m.h_tilde / 100.0
        d["eps"] = eps = self.eps_scale * m.r1_tilde / 50.0
        d["r1"] = m.r1_tilde - eps
        d["r2"] = m.r2_tilde + eps
        d["mv"] = mv
        d["sigma0"] = math.sqrt(34.0 / 33.0) * _SQRT_2000 / mv
        d["sigma_min"] = 4.5 / mv
        d["sigma_max"] = m.r1_tilde / 2.0
        if eps >= m.r1_tilde:
            raise ValueError(
                f"eps={eps:g} swallows the hole (r1_tilde="
                f"{m.r1_tilde:g}); reduce eps_scale"
            )

    # width formulas: sigma is a float or an array (see _OPS)

    def delta(self, sigma: float) -> float:
        """Axial fattening for a packet of width sigma."""
        maximum = _OPS.get(type(sigma), _FLOAT_OPS)[1]
        return self.delta_scale * maximum(10.0 * sigma, self.magnet.h_tilde)

    def h(self, sigma: float) -> float:
        """Half-height of the fattened magnet for width sigma."""
        return self.magnet.h_tilde + self.delta(sigma)

    def omega_inv(self, sigma: float) -> float:
        """Capped tail-cut parameter (an inverse width along the axis)."""
        minimum = _OPS.get(type(sigma), _FLOAT_OPS)[0]
        return minimum(_SQRT_RATE * sigma * self.beam.mv, _SQRT_2000)

    def s1(self, sigma: float) -> float:
        """Geometric crossover scale sigma*mv*sqrt(r1^2 - sigma^2)."""
        _, _, sqrt, any_ = _OPS.get(type(sigma), _FLOAT_OPS)
        r1 = self.r1
        if any_(sigma >= r1):
            raise ValueError(
                f"sigma={np.nanmax(sigma):g} must be below the hole radius {r1:g}"
            )
        return sigma * self.beam.mv * sqrt(r1 * r1 - sigma * sigma)

    def rate_exponent(self, sigma: float) -> float:
        """(33/34) * (sigma*mv)^2 / 2, the width-dependent decay rate."""
        smv = sigma * self.beam.mv
        return _RATE * smv * smv / 2.0


def get_config(
    magnet: str = "k2",
    energy: str = "e1",
    overrides: Optional[Mapping[str, str]] = None,
) -> ExperimentConfig:
    """Build a configuration from built-in hardware names plus overrides."""
    try:
        mag = MAGNETS[magnet.lower()]
    except KeyError:
        raise ValueError(f"unknown magnet {magnet!r}; choose from {sorted(MAGNETS)}")
    try:
        beam = BEAMS[energy.lower()]
    except KeyError:
        raise ValueError(f"unknown energy {energy!r}; choose from {sorted(BEAMS)}")
    cfg = ExperimentConfig(magnet=mag, beam=beam)
    if overrides:
        cfg = apply_overrides(cfg, overrides)
    return cfg


def parse_config_file(path: str) -> Dict[str, str]:
    """Read ``key = value`` lines; '#' starts a comment, blanks ignored."""
    out: Dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


_FLOAT_KEYS = {
    "magnet.r1_tilde",
    "magnet.r2_tilde",
    "magnet.h_tilde",
    "beam.energy_kev",
    "beam.v",
    "beam.mv",
    "flux",
    "params.eps_scale",
    "params.delta_scale",
}


def apply_overrides(
    cfg: ExperimentConfig, overrides: Mapping[str, str]
) -> ExperimentConfig:
    """Return a new config with the given dotted-key overrides applied."""
    mag_kw: Dict[str, float] = {}
    beam_kw: Dict[str, float] = {}
    top_kw: Dict[str, float] = {}
    for key, raw in overrides.items():
        if key not in _FLOAT_KEYS:
            raise ValueError(f"unknown config key {key!r}")
        try:
            value = float(raw)
        except (TypeError, ValueError):
            raise ValueError(f"config key {key!r}: expected a number, got {raw!r}")
        if not math.isfinite(value):
            raise ValueError(f"config key {key!r}: expected a finite number, got {raw!r}")
        section, _, leaf = key.partition(".")
        if section == "magnet":
            mag_kw[leaf] = value
        elif section == "beam":
            beam_kw[leaf] = value
        elif section == "params":
            top_kw[leaf] = value
        else:  # flux
            top_kw["flux"] = value
    mag = replace(cfg.magnet, name=cfg.magnet.name + "*", **mag_kw) if mag_kw else cfg.magnet
    beam = replace(cfg.beam, name=cfg.beam.name + "*", **beam_kw) if beam_kw else cfg.beam
    return replace(cfg, magnet=mag, beam=beam, **top_kw)
