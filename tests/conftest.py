import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from abcertify.config import BEAMS, MAGNETS, get_config
from golden import build_full_window, build_window  # noqa: F401 (imported from here by the tests)

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=60,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


ALL_COMBOS = list(itertools.product(sorted(MAGNETS), sorted(BEAMS)))


def record_array_crossings(monkeypatch, module):
    """Wrap ``module.z_crossing``: every call goes through, and the list
    returned collects the arguments of each array call (an array
    threshold), not the float calls."""
    calls = []
    solve = module.z_crossing

    def recording(omega_inv, *args):
        if isinstance(omega_inv, np.ndarray):
            calls.append((omega_inv, *args))
        return solve(omega_inv, *args)

    monkeypatch.setattr(module, "z_crossing", recording)
    return calls


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
