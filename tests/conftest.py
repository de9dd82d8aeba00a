import itertools
import math

import pytest
from hypothesis import HealthCheck, settings

from abcertify.config import BEAMS, MAGNETS, get_config

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=60,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


ALL_COMBOS = list(itertools.product(sorted(MAGNETS), sorted(BEAMS)))


@pytest.fixture(scope="session")
def cfg():
    """The headline configuration: K2 magnet, E1 beam."""
    return get_config("k2", "e1")


@pytest.fixture(scope="session")
def cfg_k1e1():
    return get_config("k1", "e1")


@pytest.fixture(scope="session", params=ALL_COMBOS, ids=lambda c: f"{c[0]}-{c[1]}")
def any_cfg(request):
    magnet, beam = request.param
    return get_config(magnet, beam)


@pytest.fixture(scope="session")
def field_model(cfg):
    from abcertify.fields import FieldModel

    return FieldModel(cfg)


@pytest.fixture
def config_file(tmp_path):
    """Write a key = value config file and return its path."""

    def _write(text, name="override.cfg"):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return _write


@pytest.fixture
def decimal_calls(monkeypatch):
    """The log magnitudes ``xreal.sci_strings`` hands its Decimal fallback, in order."""
    from abcertify import xreal

    calls = []
    slow = xreal._sci_string_decimal

    def counting(lm):
        calls.append(lm)
        return slow(lm)

    monkeypatch.setattr(xreal, "_sci_string_decimal", counting)
    return calls


def build_window(sigma, mv, zeta, s, z_cap, delta0, r1, kind):
    """One window of ``certify._build_windows``: a batch of one span."""
    from abcertify import certify
    from abcertify.kinematics import rho

    rho_at = {z: rho(sigma, mv, z) for z in (s, z_cap)}
    return certify._build_windows(sigma, mv, zeta, delta0, [(s, z_cap, kind)], r1, rho_at)[0]


def build_full_window(sigma, mv, zeta, s, z_cap, delta0, r1, kind):
    """The same window with no floor and no stop test: its whole grid.

    Every node of the window is solved and kept, so its grid is the
    reference a floored or truncated window is checked against.
    """
    from abcertify import certify

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(certify, "_STOP_LOG", -math.inf)
        mp.setattr(certify, "_FLOOR_LOG", -math.inf)
        return build_window(sigma, mv, zeta, s, z_cap, delta0, r1, kind)
