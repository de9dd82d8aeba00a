"""Experiment data sets: literals, derived geometry, and overrides."""

import math
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from abcertify.cli import main
from abcertify.config import (
    BEAMS,
    MAGNETS,
    Beam,
    ExperimentConfig,
    apply_overrides,
    get_config,
    parse_config_file,
)
from abcertify.kinematics import rho

import published


def test_magnet_literals():
    assert set(MAGNETS) == {"k1", "k2"}
    k1, k2 = MAGNETS["k1"], MAGNETS["k2"]
    assert (k1.r1_tilde, k1.r2_tilde, k1.h_tilde) == (1.5e-4, 2.5e-4, 1e-6)
    assert (k2.r1_tilde, k2.r2_tilde, k2.h_tilde) == (1.75e-4, 2.75e-4, 1e-6)


def test_beam_literals():
    assert set(BEAMS) == {"e1", "e2", "e3"}
    assert (BEAMS["e1"].energy_kev, BEAMS["e1"].v, BEAMS["e1"].mv) == (
        150.0,
        2.2971e10,
        1.9842e10,
    )
    assert (BEAMS["e2"].energy_kev, BEAMS["e2"].v, BEAMS["e2"].mv) == (
        100.0,
        1.8755e10,
        1.6201e10,
    )
    assert (BEAMS["e3"].energy_kev, BEAMS["e3"].v, BEAMS["e3"].mv) == (
        80.0,
        1.6775e10,
        1.4491e10,
    )


def test_derived_geometry(cfg):
    assert cfg.eps_tilde == pytest.approx(5e-7, rel=1e-14)
    assert cfg.delta_tilde == pytest.approx(1e-8, rel=1e-14)
    assert cfg.eps == pytest.approx(3.5e-6, rel=1e-14)
    assert cfg.r1 == pytest.approx(1.715e-4, rel=1e-14)
    assert cfg.r2 == pytest.approx(2.785e-4, rel=1e-14)
    assert cfg.mv == 1.9842e10
    assert cfg.sigma_max == pytest.approx(8.75e-5, rel=1e-14)


def test_width_anchors(cfg):
    assert cfg.sigma_min == pytest.approx(4.5 / cfg.mv, rel=1e-14)
    assert cfg.sigma0 == pytest.approx(published.FROZEN_SIGMA0_K2E1, rel=1e-12)
    # defining equation of sigma0: rate exponent equals 1000
    assert cfg.rate_exponent(cfg.sigma0) == pytest.approx(1000.0, rel=1e-12)


def test_axial_fattening_piecewise(cfg):
    h_tilde = cfg.magnet.h_tilde
    # at or below h_tilde/10 the fattening sits exactly on the floor
    for s in (1e-10, 1e-8, h_tilde / 10.0):
        assert cfg.delta(s) == h_tilde
    for s in (2e-7, 1e-6, 1e-5):
        assert cfg.delta(s) == pytest.approx(10.0 * s, rel=1e-14)
        assert cfg.h(s) == pytest.approx(h_tilde + 10.0 * s, rel=1e-14)


def test_slab_height_monotone_and_above_floor(cfg):
    grid = np.geomspace(cfg.sigma_min, cfg.sigma_max, 2000)
    hs = [cfg.h(s) for s in grid]
    assert all(b >= a for a, b in zip(hs, hs[1:]))
    assert all(h > cfg.magnet.h_tilde for h in hs)


def test_spread_cap(cfg):
    cap = math.sqrt(2000.0)
    assert cfg.omega_inv(1e-5) == cap
    s = 1e-9
    assert cfg.omega_inv(s) == pytest.approx(
        math.sqrt(33.0 / 34.0) * s * cfg.mv, rel=1e-14
    )


def test_width_formulas_return_floats_for_a_float(cfg):
    for f in (cfg.h, cfg.delta, cfg.omega_inv, cfg.s1):
        assert type(f(1e-7)) is float, f.__name__


def test_crossover_scale_rejects_any_width_past_the_hole(cfg):
    with pytest.raises(ValueError, match="must be below the hole radius"):
        cfg.s1(cfg.r1)
    with pytest.raises(ValueError, match="must be below the hole radius"):
        cfg.s1(np.array([1e-7, cfg.r1, 1e-6]))


def test_crossover_scale_defining_equation(cfg):
    # r1 * rho(sigma, s1(sigma)) == 1 identically; check the float residual
    grid = np.geomspace(cfg.sigma_min, 0.999 * cfg.r1, 10_000)
    worst = max(
        abs(cfg.r1 * rho(s, cfg.mv, cfg.s1(s)) - 1.0) for s in grid
    )
    assert worst < 1e-12


@given(st.floats(min_value=1e-10, max_value=8e-5))
def test_rate_exponent_formula(s):
    cfg = get_config("k2", "e1")
    expect = (33.0 / 34.0) * (s * cfg.mv) ** 2 / 2.0
    assert cfg.rate_exponent(s) == pytest.approx(expect, rel=1e-13)


# ----------------------------------------------------------------------
# lookup, validation, overrides
# ----------------------------------------------------------------------


def test_get_config_case_insensitive():
    a = get_config("K2", "E1")
    b = get_config("k2", "e1")
    assert a == b


def test_get_config_unknown_names():
    with pytest.raises(ValueError):
        get_config("k3", "e1")
    with pytest.raises(ValueError):
        get_config("k1", "e9")


def test_flux_validation(cfg):
    with pytest.raises(ValueError):
        ExperimentConfig(magnet=cfg.magnet, beam=cfg.beam, flux=7.0)
    ok = ExperimentConfig(magnet=cfg.magnet, beam=cfg.beam, flux=-6.28)
    assert ok.flux == -6.28


def test_scale_validation(cfg):
    with pytest.raises(ValueError):
        ExperimentConfig(magnet=cfg.magnet, beam=cfg.beam, eps_scale=0.0)
    with pytest.raises(ValueError):
        ExperimentConfig(magnet=cfg.magnet, beam=cfg.beam, delta_scale=-1.0)
    # scaled smoothing must stay inside the inner radius
    with pytest.raises(ValueError):
        ExperimentConfig(magnet=cfg.magnet, beam=cfg.beam, eps_scale=51.0)


def test_beam_validation():
    with pytest.raises(ValueError):
        Beam(name="bad", energy_kev=100.0, v=1.0e10, mv=-1.0)


def test_parse_config_file(config_file):
    path = config_file(
        """
# comment line
flux = 1.5

beam.mv = 2.0e10   # trailing comment
"""
    )
    parsed = parse_config_file(path)
    assert parsed == {"flux": "1.5", "beam.mv": "2.0e10"}


def test_parse_config_file_bad_line(config_file):
    path = config_file("flux 1.5\n")
    with pytest.raises(ValueError) as exc:
        parse_config_file(path)
    assert "line 1" in str(exc.value) or ":1" in str(exc.value)


def test_apply_overrides(cfg):
    out = apply_overrides(
        cfg, {"beam.mv": "2e10", "magnet.r1_tilde": "1.8e-4", "flux": "1.0"}
    )
    assert out.beam.mv == 2e10
    assert out.beam.name == "e1*"
    assert out.magnet.r1_tilde == 1.8e-4
    assert out.magnet.name == "k2*"
    assert out.flux == 1.0
    # the original is untouched
    assert cfg.beam.mv == 1.9842e10


def test_config_file_rejects_log_ten(capsys, config_file):
    # the sigma sets are fixed at ln 10; the key is no longer an option
    path = config_file("partition.log_ten = 2.302585092994046\n")
    assert main(["eval", "--sigma", "1e-7", "--config", path]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "partition.log_ten" in err


@pytest.mark.parametrize(
    "key, value",
    [
        ("magnet.h_tilde", "inf"),
        ("beam.mv", "nan"),
        ("params.delta_scale", "nan"),
        ("params.eps_scale", "inf"),
    ],
)
@pytest.mark.parametrize("argv", [["eval", "--sigma", "1e-7"], ["verify", "--set", "sigma10"]])
def test_config_file_rejects_non_finite(capsys, config_file, key, value, argv):
    path = config_file(f"{key} = {value}\n")
    assert main(argv + ["--config", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "configuration error" in captured.err and key in captured.err


def test_non_finite_fields_rejected(cfg):
    with pytest.raises(ValueError, match="h_tilde must be finite"):
        replace(cfg.magnet, h_tilde=math.inf)
    with pytest.raises(ValueError, match="r2_tilde must be finite"):
        replace(cfg.magnet, r2_tilde=math.inf)
    with pytest.raises(ValueError, match="energy_kev must be finite"):
        replace(cfg.beam, energy_kev=math.nan)
    with pytest.raises(ValueError, match="v must be finite"):
        replace(cfg.beam, v=math.nan)
    with pytest.raises(ValueError, match="delta_scale must be finite"):
        replace(cfg, delta_scale=math.nan)


def test_apply_overrides_unknown_key(cfg):
    with pytest.raises(ValueError):
        apply_overrides(cfg, {"beam.charge": "1"})


_DERIVED = ("eps_tilde", "delta_tilde", "eps", "r1", "r2", "mv", "sigma0", "sigma_min", "sigma_max")


def _derived(cfg):
    return {name: getattr(cfg, name) for name in _DERIVED}


def test_derived_constants_are_fresh_on_every_changed_config():
    base = get_config("k2", "e1")
    r1, eps, mv = base.r1, base.eps, base.mv  # read first, so they are cached
    scaled = apply_overrides(base, {"params.eps_scale": "2"})
    assert scaled.eps == 2.0 * eps
    assert scaled.r1 == base.magnet.r1_tilde - scaled.eps != r1
    assert scaled.r2 == base.magnet.r2_tilde + scaled.eps != base.r2
    faster = apply_overrides(base, {"beam.mv": "2.5e10"})
    assert faster.mv == 2.5e10 != mv
    assert faster.sigma0 == math.sqrt(34.0 / 33.0) * math.sqrt(2000.0) / 2.5e10 != base.sigma0
    assert faster.sigma_min == 4.5 / 2.5e10
    moved = replace(base, magnet=replace(base.magnet, r1_tilde=1.6e-4))
    assert moved.r1 == 1.6e-4 - 1.6e-4 / 50.0 != r1
    assert moved.sigma_max == 0.8e-4
    # the base config keeps its own values
    assert (base.r1, base.eps, base.mv) == (r1, eps, mv)


def test_pickled_config_keeps_equality_hash_and_constants():
    base = get_config("k1", "e3")
    assert base.r1 < base.sigma_max * 2.0  # read (and cache) before pickling, as a sweep has
    for cfg in (base, get_config("k2", "e2")):
        copy = pickle.loads(pickle.dumps(cfg))
        assert copy == cfg and hash(copy) == hash(cfg)
        assert _derived(copy) == _derived(cfg)


def _formulas(cfg):
    """The nine derived constants by the expressions the config documents."""
    m, mv = cfg.magnet, cfg.beam.mv
    eps = cfg.eps_scale * m.r1_tilde / 50.0
    return {
        "eps_tilde": (m.r2_tilde - m.r1_tilde) / 200.0,
        "delta_tilde": m.h_tilde / 100.0,
        "eps": eps,
        "r1": m.r1_tilde - eps,
        "r2": m.r2_tilde + eps,
        "mv": mv,
        "sigma0": math.sqrt(34.0 / 33.0) * math.sqrt(2000.0) / mv,
        "sigma_min": 4.5 / mv,
        "sigma_max": m.r1_tilde / 2.0,
    }


def _hex(values):
    return {name: value.hex() for name, value in values.items()}


def test_derived_constants_match_their_formulas_bit_for_bit():
    base = get_config("k2", "e1")
    configs = [get_config(m, e) for m in sorted(MAGNETS) for e in sorted(BEAMS)]
    configs.append(get_config("k1", "e2", {
        "params.eps_scale": "1.7", "beam.mv": "1.3e10", "magnet.r2_tilde": "3e-4",
    }))
    configs.append(replace(base, eps_scale=0.3, magnet=replace(base.magnet, r1_tilde=1.6e-4)))
    for cfg in configs:
        want = _hex(_formulas(cfg))
        assert _hex(_derived(cfg)) == want
        # a --jobs worker gets its config pickled
        copy = pickle.loads(pickle.dumps(cfg))
        assert _hex(_derived(copy)) == want
        assert copy == cfg and hash(copy) == hash(cfg)
    # plain attributes: no argument, and no part of the repr or equality
    with pytest.raises(TypeError):
        ExperimentConfig(base.magnet, base.beam, r1=1.0)
    with pytest.raises(ValueError):
        replace(base, r1=1.0)
    assert repr(base) == (
        f"ExperimentConfig(magnet={base.magnet!r}, beam={base.beam!r}, "
        "flux=3.141592653589793, eps_scale=1.0, delta_scale=1.0)"
    )


@pytest.mark.parametrize("kwargs, message", [
    ({"flux": 7.0}, "|flux| must be < 2*pi, got 7.0"),
    ({"flux": math.nan}, "flux must be finite, got nan"),
    ({"eps_scale": math.inf, "delta_scale": math.nan}, "eps_scale must be finite, got inf"),
    ({"delta_scale": -math.inf}, "delta_scale must be finite, got -inf"),
    ({"eps_scale": 0.0}, "eps_scale and delta_scale must be positive"),
    ({"delta_scale": -1.0}, "eps_scale and delta_scale must be positive"),
    ({"eps_scale": 51.0}, "eps=0.0001785 swallows the hole (r1_tilde=0.000175); reduce eps_scale"),
])
def test_invalid_configs_keep_their_messages(kwargs, message):
    base = get_config("k2", "e1")
    with pytest.raises(ValueError) as exc:
        ExperimentConfig(base.magnet, base.beam, **kwargs)
    assert str(exc.value) == message
    with pytest.raises(ValueError) as exc:
        replace(base, **kwargs)
    assert str(exc.value) == message
