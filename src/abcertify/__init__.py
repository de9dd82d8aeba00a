"""abcertify: certified interference bounds for shielded-solenoid beams.

The package re-derives, with one-sided rounding throughout, the
machine-checked estimates behind a matter-wave interference setup: a
Gaussian beam passing a magnetically shielded toroidal magnet.  It
provides

* :class:`~abcertify.xreal.XReal` -- an extended-range nonnegative
  scalar carrying certified upper bounds far below 1e-308;
* a field model (magnet profile, vector potential, shield function)
  with certified sup-norm constants;
* packet kinematics (spreading rates, crossing distances, windows);
* the bound engine (calibrated envelopes, size/angle tables, final
  interference bound) and the pairwise certification sweep;
* an ``ab-certify`` command-line front end.
"""

from .config import ExperimentConfig, get_config, parse_config_file
from .xreal import XReal, fold_add_logs
from .kinematics import (
    gaussian_window,
    opening_angle_deg,
    packet_radius,
    rho,
    weighted_window,
    z_crossing,
    z_of_sigma,
)
from .fields import (
    FieldModel,
    coupling_constants,
    norm_bundle,
    ring_tail,
    supnorm_constants,
)
from .bounds import (
    BoundReport,
    assembled_norms,
    calibrated_coefficients,
    envelope_sides,
    final_bound,
    interaction_probability,
    interval_certificates,
    plateau_interval,
    regime_bound,
    threshold_sigma,
)
from .certify import PairResult, check_pair, sweep, write_csv
from .partition import SET_NAMES, decade_partition, sigma_sets

__version__ = "0.1.0"

__all__ = [
    "ExperimentConfig",
    "get_config",
    "parse_config_file",
    "XReal",
    "fold_add_logs",
    "gaussian_window",
    "opening_angle_deg",
    "packet_radius",
    "rho",
    "weighted_window",
    "z_crossing",
    "z_of_sigma",
    "FieldModel",
    "coupling_constants",
    "norm_bundle",
    "ring_tail",
    "supnorm_constants",
    "BoundReport",
    "assembled_norms",
    "calibrated_coefficients",
    "envelope_sides",
    "final_bound",
    "interaction_probability",
    "interval_certificates",
    "plateau_interval",
    "regime_bound",
    "threshold_sigma",
    "PairResult",
    "check_pair",
    "sweep",
    "write_csv",
    "SET_NAMES",
    "decade_partition",
    "sigma_sets",
    "__version__",
]
