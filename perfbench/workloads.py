"""The four benchmark workloads: seeded inputs, one item at a time, checks.

Each workload draws its inputs from the seed with the package's own
generators, then runs them item by item through public entry points
only.  A workload object has four jobs:

* ``items`` -- the seeded inputs, fixed for the whole run;
* ``digest`` -- a hash of those inputs, so two runs (or a parent commit
  and a change) provably measured the same thing;
* ``run_item(item)`` -- one unit of user-visible work, returning an
  :class:`Outcome` that says whether the item's certificate held;
* ``end_pass(outcomes)`` -- per-pass output (the sweeps write their CSV
  here) and a digest of everything the pass produced.

Every call into the package goes through a module attribute
(``certify.check_pair``, not a name imported once), so the traced run
can wrap it where the benchmark looks it up.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

from abcertify import bounds, certify, config, fields, partition

# ----------------------------------------------------------------------
# sizes, fixed per workload so a pass takes a few seconds on one core
# ----------------------------------------------------------------------

TIGHT_SETS = ("sigma4", "sigma5", "sigma6", "sigma7", "sigma8")
WIDE_SETS = ("sigma1", "sigma2", "sigma9", "sigma10", "sigma11")
TIGHT_PAIRS = 100
WIDE_PAIRS = 600

# criterion 09 draws sup-norm, divergence and curl points 1 : 5 : 5
FIELD_SUP_POINTS = 20
FIELD_DIV_POINTS = 100
FIELD_CURL_POINTS = 100
FIELD_SIGMA = 1e-7  # width at which criterion 09 takes the sup-norm constants
RAMP_PANEL_SEED = 0

BOUND_COMBOS = tuple((m, e) for m in ("k1", "k2") for e in ("e1", "e2", "e3"))
BOUND_CERT_CALLS = 10  # interval-certificate calls per config
BOUND_GRID_SIZES = (400, 600)  # grid points per call, drawn from the seed
BOUND_EXTRA_TARGETS = 2  # seeded extra threshold exponents per config and branch
BOUND_PLATEAU_EXP = -99
THRESHOLD_TOL_DECADES = 1e-6


@dataclass
class Outcome:
    """What one item produced.

    ``margin`` is the item's smallest certified slack in decades
    (``inf`` when the item has none); ``values`` are the numbers the
    item computed, hashed per pass to prove passes agree bit for bit.
    """

    ok: bool
    margin: float
    values: tuple


def _digest(lines: Sequence[str]) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def _largest_remainder(weights: Dict[str, int], total: int, caps: Dict[str, int]) -> Dict[str, int]:
    """Split ``total`` across keys in proportion to ``weights``, capped per key."""
    wsum = sum(weights.values())
    raw = {k: total * w / wsum for k, w in weights.items()}
    quota = {k: min(caps[k], math.floor(v)) for k, v in raw.items()}
    short = total - sum(quota.values())
    for k in sorted(raw, key=lambda k: (quota[k] - raw[k], k)):
        if short <= 0:
            break
        if quota[k] < caps[k]:
            quota[k] += 1
            short -= 1
    return quota


def stratified_pairs(cfg, names: Sequence[str], n: int, rng: np.random.Generator):
    """Sample ``n`` jobs of ``partition.sweep_pairs`` stratified by set.

    The first and last pair of every set are always taken: each set's
    margin is smallest at one of its ends, so the sample's minimum
    margin does not depend on the seed.  The rest of the sample is
    spread over the sets' interior pairs in proportion to set size.
    """
    jobs = partition.sweep_pairs(cfg, names)
    by_set: Dict[str, list] = {name: [] for name in names}
    for job in jobs:
        by_set[job[0]].append(job)
    chosen = []
    interior = {}
    for name, set_jobs in by_set.items():
        edges = {0, len(set_jobs) - 1}
        chosen.extend(set_jobs[i] for i in sorted(edges))
        interior[name] = [j for j in set_jobs if j[1] not in edges]
    quota = _largest_remainder(
        {k: len(v) for k, v in by_set.items()},
        n - len(chosen),
        {k: len(v) for k, v in interior.items()},
    )
    for name in names:
        pool = interior[name]
        picks = rng.choice(len(pool), size=quota[name], replace=False)
        chosen.extend(pool[i] for i in picks)
    order = {name: i for i, name in enumerate(names)}
    chosen.sort(key=lambda j: (order[j[0]], j[1]))
    return chosen


# ----------------------------------------------------------------------
# sweeps: real pairs through check_pair, then write_csv
# ----------------------------------------------------------------------


class SweepWorkload:
    def __init__(self, name: str, sets: Sequence[str], n_pairs: int, seed: int, out_dir: Path):
        self.name = name
        self.cfg = config.get_config("k2", "e1")
        self.items = stratified_pairs(self.cfg, sets, n_pairs, np.random.default_rng(seed))
        self.digest = _digest([f"{j[0]}:{j[1]}" for j in self.items])
        self.csv_path = out_dir / f"{name}-seed{seed}.csv"
        self.csv_bytes = 0
        self.set_min_margin: Dict[str, float] = {}

    def describe(self) -> str:
        counts: Dict[str, int] = {}
        for j in self.items:
            counts[j[0]] = counts.get(j[0], 0) + 1
        per_set = ", ".join(f"{k}={v}" for k, v in counts.items())
        return f"{len(self.items)} pairs ({per_set})"

    def run_item(self, job) -> Outcome:
        res = certify.check_pair(self.cfg, *job)
        ok = res.passed and res.flags == "ok" and math.isfinite(res.margin_log10)
        return Outcome(ok, res.margin_log10, (res,))

    def end_pass(self, outcomes: List[Outcome]) -> Tuple[bool, str]:
        results = [o.values[0] for o in outcomes]
        certify.write_csv(results, str(self.csv_path))
        data = self.csv_path.read_bytes()
        self.csv_bytes = len(data)
        for r in results:
            m = self.set_min_margin.get(r.set_name, math.inf)
            self.set_min_margin[r.set_name] = min(m, r.margin_log10)
        return self._csv_matches(data, results), hashlib.sha256(data).hexdigest()[:16]

    def _csv_matches(self, data: bytes, results) -> bool:
        """The CSV holds exactly the sampled pairs, in order, with their verdicts."""
        rows = list(csv.reader(data.decode("utf-8").splitlines()))
        if not rows or tuple(rows[0]) != tuple(certify.CSV_COLUMNS):
            return False
        body = rows[1:]
        if len(body) != len(self.items):
            return False
        col = {c: i for i, c in enumerate(rows[0])}
        for row, job, res in zip(body, self.items, results):
            name, _, mu1, mu2, mu3 = job
            if row[col["set"]] != name:
                return False
            if (float(row[col["mu1"]]), float(row[col["mu2"]]), float(row[col["mu3"]])) != (mu1, mu2, mu3):
                return False
            if row[col["pass"]] != ("pass" if res.passed else "FAIL"):
                return False
        return True


# ----------------------------------------------------------------------
# field certificates: acceptance criterion 09, point by point
# ----------------------------------------------------------------------


def _fd_jacobian(vf, x, h):
    """J[i, j] = d vf_i / d x_j by central differences."""
    x = np.asarray(x, dtype=float)
    cols = []
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        cols.append((np.asarray(vf(x + e)) - np.asarray(vf(x - e))) / (2.0 * h))
    return np.stack(cols, axis=1)


class FieldWorkload:
    """Sup-norm, divergence and curl checks on the default field model.

    Points are drawn as criterion 09 draws them: radius uniform on
    [1e-6, 1.4 r2~], angle uniform, height uniform on [-1.5 h~, 1.5 h~].
    Curl points are redrawn until |B| clears the criterion's floor.
    The composition (sup : div : curl) is fixed, so the sample's cost
    does not depend on how many draws happen to land in the magnet.

    A curl point inside one of the profile ramps needs extra nested
    quadratures and costs up to nine times a plateau point, depending on
    how deep in the ramp it sits, yet only ~4% of the body lies in the
    ramps.  So the curl sample is stratified by zone (inner radial ramp,
    outer radial ramp, axial ramps, plateau): each ramp gets its share
    of the body, rounded, and the plateau the rest.  The few ramp points
    are a fixed panel drawn from ``RAMP_PANEL_SEED``, like the set edges
    of the sweeps; the plateau points follow the run's seed.
    """

    name = "field_certs"

    def __init__(self, seed: int):
        self.cfg = config.get_config("k2", "e1")
        self.model = fields.FieldModel(self.cfg)
        self.consts = fields.supnorm_constants(self.cfg, FIELD_SIGMA)
        self.flux = self.cfg.flux
        self.tol = 1e-9 * max(1.0, abs(self.flux))
        self.h = 1e-4 * min(self.cfg.eps_tilde, self.cfg.delta_tilde)
        self.b_floor = 1e-3 * abs(self.flux) / self.model.normalisation
        m = self.cfg.magnet
        self._r_max = 1.4 * m.r2_tilde
        self._z_max = 1.5 * m.h_tilde

        items = [("sup", x) for x in self._draw(np.random.default_rng([seed, 1]), FIELD_SUP_POINTS)]
        items += [("div", x) for x in self._draw(np.random.default_rng([seed, 2]), FIELD_DIV_POINTS)]
        quota = self._zone_quota(FIELD_CURL_POINTS)
        ramps = {z: n for z, n in quota.items() if z != "plateau"}
        curl = self._draw_zones(np.random.default_rng([RAMP_PANEL_SEED, 3]), ramps)
        curl += self._draw_zones(np.random.default_rng([seed, 3]), {"plateau": quota["plateau"]})
        items += [("curl", x) for x in curl]
        self.items = items
        self.digest = _digest([f"{k}:{x[0]!r}:{x[1]!r}:{x[2]!r}" for k, x in items])

    def _zone_quota(self, n: int) -> Dict[str, int]:
        """Curl points per zone: each ramp's share of the body, rounded."""
        m = self.cfg.magnet
        radial = 2.0 * self.cfg.eps_tilde / (m.r2_tilde - m.r1_tilde)
        axial = (1.0 - 2.0 * radial) * 2.0 * self.cfg.delta_tilde / m.h_tilde
        quota = {"inner": round(radial * n), "outer": round(radial * n), "axial": round(axial * n)}
        quota["plateau"] = n - sum(quota.values())
        return quota

    def _draw_zones(self, rng: np.random.Generator, want: Dict[str, int]):
        """Criterion draws that clear the |B| floor, kept while their zone has room."""
        want = dict(want)
        out = []
        while any(want.values()):
            x = self._draw(rng, 1)[0]
            zone = self._zone(x)
            if want.get(zone) and np.linalg.norm(self.model.b_field(x)) >= self.b_floor:
                want[zone] -= 1
                out.append(x)
        return out

    def _zone(self, x) -> str:
        """Which profile ramp x lies in (radial ones first), or "plateau"."""
        m, e, d = self.cfg.magnet, self.cfg.eps_tilde, self.cfg.delta_tilde
        r = math.hypot(x[0], x[1])
        if m.r1_tilde <= r <= m.r1_tilde + 2.0 * e:
            return "inner"
        if m.r2_tilde - 2.0 * e <= r <= m.r2_tilde:
            return "outer"
        if m.h_tilde - 2.0 * d <= abs(x[2]) <= m.h_tilde:
            return "axial"
        return "plateau"

    def _draw(self, rng: np.random.Generator, n: int):
        rs = rng.uniform(1e-6, self._r_max, n)
        phis = rng.uniform(0.0, 2.0 * math.pi, n)
        zs = rng.uniform(-self._z_max, self._z_max, n)
        return [(float(r * math.cos(p)), float(r * math.sin(p)), float(z)) for r, p, z in zip(rs, phis, zs)]

    def describe(self) -> str:
        return (
            f"{len(self.items)} points ({FIELD_SUP_POINTS} sup-norm, "
            f"{FIELD_DIV_POINTS} divergence, {FIELD_CURL_POINTS} curl)"
        )

    def run_item(self, item) -> Outcome:
        kind, x = item
        if kind == "sup":
            return self._sup(x)
        if kind == "div":
            return self._div(x)
        return self._curl(x)

    @staticmethod
    def _slack(bound: float, value: float) -> float:
        return math.log10(bound / value) if value > 0.0 else math.inf

    def _sup(self, x) -> Outcome:
        fm, c, scale = self.model, self.consts, abs(self.flux)
        b = float(np.linalg.norm(fm.b_field(x))) / scale
        jac = fm.b_partials(x)
        b_perp = float(np.abs(jac[:, :2]).max()) / scale
        b_axial = float(np.abs(jac[:, 2]).max()) / scale
        a = abs(fm.a3(x)) / scale
        chi = fm.chi(x, FIELD_SIGMA)
        chi_p2 = abs(fm.chi_curvature(x, FIELD_SIGMA))
        ok = (
            b <= c["b"]
            and b_perp <= c["b_perp"]
            and b_axial <= c["b_axial"]
            and a <= c["a"]
            and chi <= c["chi"]
            and chi_p2 <= c["chi_p2"]
        )
        flux_ok, linked, gauge = self._flux_and_gauge(x)
        # The margin covers the value sup-norms, which the plateau reaches
        # exactly; derivative peaks are too narrow for sampled slack there
        # to say anything about the constant.
        margin = min(self._slack(c["b"], b), self._slack(c["a"], a))
        return Outcome(ok and flux_ok, margin, (b, b_perp, b_axial, a, chi, chi_p2, linked, gauge))

    def _flux_and_gauge(self, x) -> Tuple[bool, float, float]:
        """Linked flux at the point's radius and the gauge value off the body."""
        fm, m, flux, tol = self.model, self.cfg.magnet, self.flux, self.tol
        r = math.hypot(x[0], x[1])
        linked = fm.flux_linked(r)
        if r <= m.r1_tilde:
            ok = abs(linked - flux) <= tol
        elif r >= m.r2_tilde:
            ok = abs(linked) <= tol
        else:
            ok = -tol <= linked <= flux + tol
        on_body = m.r1_tilde <= r <= m.r2_tilde and -m.h_tilde <= x[2] <= m.h_tilde
        if on_body or (x[2] == -m.h_tilde and r >= m.r1_tilde):
            return ok, linked, math.nan
        gauge = fm.lambda_gauge(x)
        if x[2] <= -m.h_tilde:
            ok = ok and abs(gauge) <= tol
        elif r < m.r1_tilde:
            ok = ok and -tol <= gauge <= flux + tol
        else:
            ok = ok and abs(gauge - flux) <= tol
        return ok, linked, gauge

    def _div(self, x) -> Outcome:
        fm = self.model
        div = abs(float(np.trace(_fd_jacobian(fm.b_field, x, self.h))))
        scale = float(np.abs(fm.b_partials(x)).sum()) + abs(self.flux) / fm.normalisation
        return Outcome(div <= 1e-4 * scale, math.inf, (div, scale))

    def _curl(self, x) -> Outcome:
        fm = self.model
        bvec = fm.b_field(x)
        bnorm = float(np.linalg.norm(bvec))
        j = _fd_jacobian(fm.a_potential, x, self.h)
        curl = np.array([j[2, 1] - j[1, 2], j[0, 2] - j[2, 0], j[1, 0] - j[0, 1]])
        err = float(np.abs(curl - bvec).max())
        margin = self._slack(self.consts["b"], bnorm / abs(self.flux))
        return Outcome(err <= 1e-3 * bnorm, margin, (bnorm, err))

    def end_pass(self, outcomes: List[Outcome]) -> Tuple[bool, str]:
        return True, _digest([repr(o.values) for o in outcomes])


# ----------------------------------------------------------------------
# bound certificates: criterion 06 plus the threshold bisections
# ----------------------------------------------------------------------


class BoundWorkload:
    """Per magnet x energy config: interval certificates, both threshold
    tables, seeded extra thresholds and the 1e-99 plateau.

    Criterion 06 checks each config on 10,000-point grids in one 0.45 s
    call.  Timed at that grain, every call soaks up the machine's
    bursts, so the certificates run instead as ``BOUND_CERT_CALLS``
    calls on seeded grids of ``BOUND_GRID_SIZES`` points (~20 ms each),
    the same per-point work on more distinct widths.
    """

    name = "bound_certs"

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.items = []
        lo, hi = BOUND_GRID_SIZES
        for m, e in BOUND_COMBOS:
            sizes = rng.integers(lo, hi, BOUND_CERT_CALLS, endpoint=True)
            self.items += [("certificates", m, e, int(n)) for n in sizes]
            # real exponents k: targets 10^-k strictly inside both tables' range
            extra = tuple(float(k) for k in rng.uniform(1.0, 10.0, BOUND_EXTRA_TARGETS))
            self.items.append(("thresholds", m, e, extra))
        self.digest = _digest([repr(item) for item in self.items])

    def describe(self) -> str:
        return (
            f"{len(BOUND_COMBOS)} configs x ({BOUND_CERT_CALLS} certificate grids of "
            f"{BOUND_GRID_SIZES[0]}-{BOUND_GRID_SIZES[1]} widths + thresholds with "
            f"{BOUND_EXTRA_TARGETS} extra targets per branch)"
        )

    def run_item(self, item) -> Outcome:
        kind, magnet, energy, arg = item
        cfg = config.get_config(magnet, energy)
        if kind == "certificates":
            certs = bounds.interval_certificates(cfg, n=arg)
            ok = all(rec["violations"] == 0 for rec in certs.values())
            values = tuple(sorted((k, v["violations"], v["margin"]) for k, v in certs.items()))
            return Outcome(ok, math.inf, values)
        try:
            tables = {}
            for branch in ("big", "small"):
                tables[branch] = bounds.size_table(cfg, branch) + bounds.size_table(cfg, branch, arg)
            lo, hi = bounds.plateau_interval(cfg, BOUND_PLATEAU_EXP)
        except ValueError:  # a bisection found no crossing in its bracket
            return Outcome(False, -math.inf, ())
        ok = all(self._table_ok(cfg, branch, rows) for branch, rows in tables.items())
        mid = math.sqrt(lo * hi)
        plateau_top = bounds.final_bound(cfg, mid).total.log_mag / math.log(10.0)
        ok = ok and 0.0 < lo < hi and plateau_top < BOUND_PLATEAU_EXP
        values = (tuple(tables["big"]), tuple(tables["small"]), lo, hi)
        return Outcome(ok, math.log10(hi / lo), values)

    @staticmethod
    def _table_ok(cfg, branch: str, rows) -> bool:
        """Each width sits on its target, and widths order with the target."""
        for k, ratio in rows:
            got = bounds.final_bound(cfg, ratio * cfg.r1).total.log_mag / math.log(10.0)
            if not abs(got + k) <= THRESHOLD_TOL_DECADES:
                return False
        ordered = sorted(rows)
        ratios = [r for _, r in ordered]
        # big branch: smaller targets need narrower packets; small branch: wider
        pairs = zip(ratios, ratios[1:])
        if branch == "big":
            return all(a > b for a, b in pairs)
        return all(a < b for a, b in pairs)

    def end_pass(self, outcomes: List[Outcome]) -> Tuple[bool, str]:
        return True, _digest([repr(o.values) for o in outcomes])


WORKLOADS = ("sweep_tight", "sweep_wide", "field_certs", "bound_certs")


def make_workload(name: str, seed: int, out_dir: Path):
    if name == "sweep_tight":
        return SweepWorkload(name, TIGHT_SETS, TIGHT_PAIRS, seed, out_dir)
    if name == "sweep_wide":
        return SweepWorkload(name, WIDE_SETS, WIDE_PAIRS, seed, out_dir)
    if name == "field_certs":
        return FieldWorkload(seed)
    if name == "bound_certs":
        return BoundWorkload(seed)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
