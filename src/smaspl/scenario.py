"""Scenario definition, synthetic profiles, forecast errors, network noise.

File formats (all key-value YAML / CSV, documented fully in the README and
in scenarios/scenario_reference.yaml):

  * grid file: buses + branches, ohm or p.u. units per branch
  * scenario file: sections grid/mgs/host_loads/profiles/forecast_error/
    training
  * profile CSV: header ``timestamp,mg<i>_load_kw,mg<i>_irradiance`` on a
    strict 15-minute grid

Every generator here is a pure function of (seed, params): identical
seeds give identical series.  Unit conversion to p.u. happens exactly
once, inside the power-flow boundary.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import yaml

from .grid import Branch, Bus, GridModel, GridError, load_grid_file
from .microgrid import (
    BusMap,
    DGSpec,
    ESSSpec,
    MicrogridSpec,
    PCCSpec,
    PVSpec,
    STEP_MINUTES,
    find_pcc_branch,
)

__all__ = [
    "ProfileSeries",
    "ForecastErrorParams",
    "Scenario",
    "ScenarioError",
    "load_profiles",
    "save_profiles",
    "synth_profiles",
    "constant_profiles",
    "forecast_with_error",
    "perturb_network",
    "load_scenario",
    "TRAINING_DEFAULTS",
    "case33_branches",
    "case33_loads",
    "mg13_branches",
    "networked_feeder_case",
    "nominal_loads_98",
]


class ScenarioError(ValueError):
    """Invalid scenario or profile file contents."""


# ---------------------------------------------------------------------------
# Profiles
# ---------------------------------------------------------------------------

@dataclass
class ProfileSeries:
    """Uniform 15-minute series of per-MG load (kW) and irradiance (0..1.2)."""

    timestamps: list[datetime]
    load_kw: np.ndarray        # (steps, n_mg)
    irradiance: np.ndarray     # (steps, n_mg)

    def __post_init__(self):
        n = len(self.timestamps)
        if self.load_kw.shape[0] != n or self.irradiance.shape[0] != n:
            raise ScenarioError("profile arrays must match timestamp count")
        step = timedelta(minutes=STEP_MINUTES)
        for k in range(1, n):
            if self.timestamps[k] - self.timestamps[k - 1] != step:
                raise ScenarioError(
                    f"profile gap between rows {k} and {k + 1}: "
                    f"{self.timestamps[k - 1]} -> {self.timestamps[k]}"
                )
        if np.any(self.load_kw < 0):
            raise ScenarioError("negative load in profile")

    @property
    def n_steps(self) -> int:
        return len(self.timestamps)

    @property
    def n_mg(self) -> int:
        return self.load_kw.shape[1]

    def window(self, start: int, horizon: int):
        """(irradiance, load) truth slices of shape (T, n_mg)."""
        if start < 0 or start + horizon > self.n_steps:
            raise ScenarioError(
                f"window [{start}, {start + horizon}) outside series of "
                f"{self.n_steps} steps"
            )
        return (self.irradiance[start:start + horizon],
                self.load_kw[start:start + horizon])


def load_profiles(path) -> ProfileSeries:
    """Parse and validate a profile CSV, reporting offending line numbers."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ScenarioError(f"{path}: empty profile file") from None
        if not header or header[0] != "timestamp":
            raise ScenarioError(f"{path}: first column must be 'timestamp'")
        n_mg = (len(header) - 1) // 2
        expected = ["timestamp"]
        for i in range(n_mg):
            expected += [f"mg{i}_load_kw", f"mg{i}_irradiance"]
        if header != expected:
            raise ScenarioError(f"{path}: header must be {expected}")
        stamps, loads, irrs = [], [], []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ScenarioError(f"{path}:{lineno}: wrong column count")
            try:
                stamps.append(datetime.fromisoformat(row[0]))
                vals = [float(v) for v in row[1:]]
            except ValueError as exc:
                raise ScenarioError(f"{path}:{lineno}: {exc}") from exc
            if any(v < 0 for v in vals[0::2]):
                raise ScenarioError(f"{path}:{lineno}: negative load")
            loads.append(vals[0::2])
            irrs.append(vals[1::2])
    step = timedelta(minutes=STEP_MINUTES)
    for k in range(1, len(stamps)):
        if stamps[k] - stamps[k - 1] != step:
            raise ScenarioError(
                f"{path}: missing 15-minute slot between {stamps[k - 1]} "
                f"and {stamps[k]} (rows {k + 1}-{k + 2})"
            )
    return ProfileSeries(stamps, np.asarray(loads), np.asarray(irrs))


def save_profiles(path, series: ProfileSeries) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        header = ["timestamp"]
        for i in range(series.n_mg):
            header += [f"mg{i}_load_kw", f"mg{i}_irradiance"]
        w.writerow(header)
        for k, ts in enumerate(series.timestamps):
            row = [ts.isoformat()]
            for i in range(series.n_mg):
                row += [repr(float(series.load_kw[k, i])),
                        repr(float(series.irradiance[k, i]))]
            w.writerow(row)


# first timestamp of the generated profile series
_PROFILE_EPOCH = datetime(2024, 6, 1)


def synth_profiles(seed: int, days: int, mg_count: int, *,
                   load_base_kw: float = 20.0,
                   load_peak_kw: float = 15.0) -> ProfileSeries:
    """Deterministic daily patterns: solar bell, evening load peak.

    Irradiance is zero outside 06:00-18:00 and never exceeds 1.2; load is
    strictly positive with a daily integral set by base + peak parameters.
    """
    rng = np.random.default_rng(seed)
    steps = days * 96
    stamps = [_PROFILE_EPOCH + timedelta(minutes=STEP_MINUTES * k)
              for k in range(steps)]
    load = np.empty((steps, mg_count))
    irr = np.empty((steps, mg_count))
    scale = 1.0 + 0.3 * rng.standard_normal(mg_count) * 0.5
    scale = np.clip(scale, 0.6, 1.5)
    for d in range(days):
        clearness = np.clip(rng.uniform(0.7, 1.15, mg_count), 0.0, 1.2)
        for s in range(96):
            k = d * 96 + s
            hour = s * STEP_MINUTES / 60.0
            if 6.0 < hour < 18.0:
                bell = math.sin(math.pi * (hour - 6.0) / 12.0) ** 2
            else:
                bell = 0.0
            irr[k] = np.clip(clearness * bell, 0.0, 1.2)
            evening = math.exp(-((hour - 19.0) / 2.5) ** 2)
            morning = 0.4 * math.exp(-((hour - 7.5) / 1.5) ** 2)
            noise = 1.0 + 0.05 * rng.standard_normal(mg_count)
            base = load_base_kw + load_peak_kw * (evening + morning)
            load[k] = np.maximum(base * scale * noise, 0.5)
    return ProfileSeries(stamps, load, irr)


def constant_profiles(steps: int, mg_count: int, load_kw,
                      irradiance) -> ProfileSeries:
    """Flat series, handy for small training fixtures."""
    stamps = [_PROFILE_EPOCH + timedelta(minutes=STEP_MINUTES * k)
              for k in range(steps)]
    load = np.broadcast_to(np.asarray(load_kw, dtype=float),
                           (steps, mg_count)).copy()
    irr = np.broadcast_to(np.asarray(irradiance, dtype=float),
                          (steps, mg_count)).copy()
    return ProfileSeries(stamps, load, irr)


# ---------------------------------------------------------------------------
# Forecast errors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ForecastErrorParams:
    """Zero-mean forecast error model.

    Solar error is a recentred, rescaled Beta(a, b) on [-scale, +scale];
    load error is Gaussian with std = load_std_frac * load.
    """

    solar_scale: float = 0.0
    beta_a: float = 2.0
    beta_b: float = 2.0
    load_std_frac: float = 0.0


def forecast_with_error(series: ProfileSeries, start: int, horizon: int,
                        params: ForecastErrorParams,
                        rng: np.random.Generator):
    """Forecast (irradiance, load) for the window, truth plus sampled error.

    Returns arrays of shape (T, n_mg), clipped to the valid ranges
    (irradiance [0, 1.2], load >= 0).
    """
    irr_t, load_t = series.window(start, horizon)
    shape = irr_t.shape
    if params.solar_scale > 0:
        centred = 2.0 * rng.beta(params.beta_a, params.beta_b, shape) - 1.0
        mean = params.beta_a / (params.beta_a + params.beta_b)
        centred = centred - (2.0 * mean - 1.0)
        irr_f = np.clip(irr_t + params.solar_scale * centred, 0.0, 1.2)
    else:
        irr_f = irr_t.copy()
    if params.load_std_frac > 0:
        err = rng.normal(0.0, 1.0, shape) * params.load_std_frac * load_t
        load_f = np.maximum(load_t + err, 0.0)
    else:
        load_f = load_t.copy()
    return irr_f, load_f


# ---------------------------------------------------------------------------
# Bad-network-data perturbation
# ---------------------------------------------------------------------------

def perturb_network(grid: GridModel, variance: float,
                    seed: int) -> GridModel:
    """Multiply every branch r and x by (1 + e), e ~ N(0, variance).

    Draws producing a non-positive resistance or reactance are resampled.
    The admittance is rebuilt from the perturbed branches.
    """
    if variance < 0:
        raise ScenarioError("variance must be >= 0")
    if variance == 0:
        return grid
    rng = np.random.default_rng(seed)
    sd = math.sqrt(variance)
    new = []
    for br in grid.branches:
        z = 1.0 / br.y
        r, x = z.real, z.imag
        while True:
            rr = r * (1.0 + rng.normal(0.0, sd))
            if rr > 0 or r <= 0:
                break
        while True:
            xx = x * (1.0 + rng.normal(0.0, sd))
            if xx > 0 or x <= 0:
                break
        new.append(Branch.from_impedance(br.from_bus, br.to_bus,
                                         rr if r > 0 else r,
                                         xx if x > 0 else x, br.i_max))
    return replace(grid, branches=new)


# ---------------------------------------------------------------------------
# Scenario file
# ---------------------------------------------------------------------------

TRAINING_DEFAULTS = {
    "gamma": 0.99,
    "delta": 1e-3,
    "kmax": 200,
    "rho1": 0.01,
    "rho2": 0.01,
    "dtheta": 1e-4,
    "tau": 0.9,
    "batch": 128,
    "sigma_floor": 0.01,
    "sigma_span_frac": 0.2,
    "eps_complementarity": 1e-3,
    "backtrack_rounds": 3,
    "hidden_layers": [10, 10, 10],
}

# value ranges of the training keys that have one, checked at load time
# so that a bad value fails before any batch runs
_TRAINING_RANGES = {
    "tau": (lambda x: 0 < x < 1, "in (0, 1)"),
    "batch": (lambda x: x >= 1, ">= 1"),
    "kmax": (lambda x: x >= 1, ">= 1"),
    "delta": (lambda x: x > 0, "> 0"),
    "backtrack_rounds": (lambda x: x >= 0, ">= 0"),
    "gamma": (lambda x: 0 < x <= 1, "in (0, 1]"),
}


@dataclass
class Scenario:
    grid: GridModel
    specs: list[MicrogridSpec]
    profiles: ProfileSeries
    window: int
    episodes: int
    seed: int
    host_loads: dict = field(default_factory=dict)
    forecast_error: ForecastErrorParams = ForecastErrorParams()
    network_noise_variance: float = 0.0
    training: dict = field(default_factory=lambda: dict(TRAINING_DEFAULTS))

    def __post_init__(self):
        if self.window < 1:
            raise ScenarioError("window length must be >= 1")
        if self.episodes < 1:
            raise ScenarioError(f"episode count must be >= 1, got "
                                f"{self.episodes}")
        if self.seed is None:
            raise ScenarioError("scenario must carry a seed")
        if (self.forecast_error.solar_scale < 0
                or self.forecast_error.load_std_frac < 0):
            raise ScenarioError("error variances must be >= 0")
        if self.network_noise_variance < 0:
            raise ScenarioError("network noise variance must be >= 0")
        if self.profiles.n_mg != len(self.specs):
            raise ScenarioError("profile columns must match MG count")
        if [s.mg_id for s in self.specs] != list(range(len(self.specs))):
            raise ScenarioError("mg_id values must be 0..N-1 in file order")
        n = self.grid.n_bus
        for spec in self.specs:
            bm = spec.bus_map
            for name in ("dg", "ess", "pv", "load", "pcc_mg", "pcc_host"):
                bus = getattr(bm, name)
                if not (0 <= bus < n):
                    raise ScenarioError(
                        f"mg{spec.mg_id}: bus_map.{name} = {bus} outside "
                        f"the {n}-bus grid")
            try:
                find_pcc_branch(self.grid, spec)
            except ValueError as exc:
                raise ScenarioError(str(exc)) from exc
        for bus in self.host_loads:
            if not (0 <= bus < n):
                raise ScenarioError(f"host load bus {bus} outside the grid")


def _mg_from_dict(row: dict) -> MicrogridSpec:
    try:
        return MicrogridSpec(
            mg_id=int(row["mg_id"]),
            dg=DGSpec(**{k: float(v) for k, v in row["dg"].items()}),
            ess=ESSSpec(**{k: float(v) for k, v in row["ess"].items()}),
            pv=PVSpec(**{k: float(v) for k, v in row["pv"].items()}),
            pcc=PCCSpec(**{k: float(v) for k, v in row["pcc"].items()}),
            bus_map=BusMap(**{k: int(v) for k, v in row["bus_map"].items()}),
            q_load_ratio=float(row.get("q_load_ratio", 0.2)),
            action_ranges={k: (float(v[0]), float(v[1]))
                           for k, v in row.get("action_ranges", {}).items()},
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"bad mg entry ({exc}): {row!r}") from exc


def load_scenario(path) -> Scenario:
    """Load a scenario file; relative paths resolve against its directory."""
    path = Path(path)
    with open(path) as fh:
        data = yaml.safe_load(fh)
    if not isinstance(data, dict):
        raise ScenarioError(f"{path}: scenario must be a mapping")
    base = path.parent
    try:
        grid = load_grid_file(base / data["grid_file"])
        specs = [_mg_from_dict(r) for r in data["mgs"]]
        window = int(data["window"])
        episodes = int(data.get("episodes", 50))
        seed = int(data["seed"])
    except GridError:
        raise
    except KeyError as exc:
        raise ScenarioError(f"{path}: missing required key {exc}") from exc

    prof = data.get("profiles", {})
    if "file" in prof:
        series = load_profiles(base / prof["file"])
    elif "synthetic" in prof:
        p = prof["synthetic"]
        series = synth_profiles(
            int(p.get("seed", seed)), int(p.get("days", 2)), len(specs),
            load_base_kw=float(p.get("load_base_kw", 20.0)),
            load_peak_kw=float(p.get("load_peak_kw", 15.0)),
        )
    elif "constant" in prof:
        p = prof["constant"]
        steps = int(p.get("steps", 96))
        series = constant_profiles(steps, len(specs),
                                   p.get("load_kw", 20.0),
                                   p.get("irradiance", 0.5))
    else:
        raise ScenarioError(f"{path}: profiles must name file/synthetic/constant")

    fe = data.get("forecast_error", {})
    err = ForecastErrorParams(
        solar_scale=float(fe.get("solar_scale", 0.0)),
        beta_a=float(fe.get("beta_a", 2.0)),
        beta_b=float(fe.get("beta_b", 2.0)),
        load_std_frac=float(fe.get("load_std_frac", 0.0)),
    )
    host_loads = {int(k): (float(v[0]), float(v[1]))
                  for k, v in (data.get("host_loads") or {}).items()}
    training = dict(TRAINING_DEFAULTS)
    extra = data.get("training") or {}
    unknown = sorted(set(extra) - set(TRAINING_DEFAULTS))
    if unknown:
        raise ScenarioError(f"{path}: unknown training key(s) {unknown}")
    training.update(extra)
    for key, (ok, rule) in _TRAINING_RANGES.items():
        value = training[key]
        if not (isinstance(value, (int, float)) and ok(value)):
            raise ScenarioError(
                f"{path}: training.{key} = {value!r}, must be {rule}")
    return Scenario(
        grid=grid, specs=specs, profiles=series, window=window,
        episodes=episodes, seed=seed, host_loads=host_loads,
        forecast_error=err,
        network_noise_variance=float(data.get("network_noise_variance", 0.0)),
        training=training,
    )


# ---------------------------------------------------------------------------
# Reference networks
# ---------------------------------------------------------------------------

def case33_branches():
    """Classic 33-bus radial feeder line data: (from, to, r_ohm, x_ohm)."""
    return [
        (0, 1, 0.0922, 0.0470), (1, 2, 0.4930, 0.2511),
        (2, 3, 0.3660, 0.1864), (3, 4, 0.3811, 0.1941),
        (4, 5, 0.8190, 0.7070), (5, 6, 0.1872, 0.6188),
        (6, 7, 1.7114, 1.2351), (7, 8, 1.0300, 0.7400),
        (8, 9, 1.0440, 0.7400), (9, 10, 0.1966, 0.0650),
        (10, 11, 0.3744, 0.1238), (11, 12, 1.4680, 1.1550),
        (12, 13, 0.5416, 0.7129), (13, 14, 0.5910, 0.5260),
        (14, 15, 0.7463, 0.5450), (15, 16, 1.2890, 1.7210),
        (16, 17, 0.7320, 0.5740), (1, 18, 0.1640, 0.1565),
        (18, 19, 1.5042, 1.3554), (19, 20, 0.4095, 0.4784),
        (20, 21, 0.7089, 0.9373), (2, 22, 0.4512, 0.3083),
        (22, 23, 0.8980, 0.7091), (23, 24, 0.8960, 0.7011),
        (5, 25, 0.2030, 0.1034), (25, 26, 0.2842, 0.1447),
        (26, 27, 1.0590, 0.9337), (27, 28, 0.8042, 0.7006),
        (28, 29, 0.5075, 0.2585), (29, 30, 0.9744, 0.9630),
        (30, 31, 0.3105, 0.3619), (31, 32, 0.3410, 0.5302),
    ]


def case33_loads():
    """Nominal feeder loads {bus: (p_kw, q_kvar)} for the 33-bus case."""
    return {
        1: (100, 60), 2: (90, 40), 3: (120, 80), 4: (60, 30), 5: (60, 20),
        6: (200, 100), 7: (200, 100), 8: (60, 20), 9: (60, 20), 10: (45, 30),
        11: (60, 35), 12: (60, 35), 13: (120, 80), 14: (60, 10), 15: (60, 20),
        16: (60, 20), 17: (90, 40), 18: (90, 40), 19: (90, 40), 20: (90, 40),
        21: (90, 40), 22: (90, 50), 23: (420, 200), 24: (420, 200),
        25: (60, 25), 26: (60, 25), 27: (60, 20), 28: (120, 70),
        29: (200, 600), 30: (150, 70), 31: (210, 100), 32: (60, 40),
    }


def mg13_branches():
    """Radial 13-bus low-voltage template: (from, to, r_ohm, x_ohm)."""
    return [
        (0, 1, 0.12, 0.20), (1, 2, 0.17, 0.25), (2, 3, 0.21, 0.28),
        (3, 4, 0.15, 0.22), (1, 5, 0.19, 0.27), (5, 6, 0.14, 0.21),
        (6, 7, 0.22, 0.30), (1, 8, 0.16, 0.24), (8, 9, 0.18, 0.26),
        (9, 10, 0.13, 0.20), (10, 11, 0.20, 0.29), (11, 12, 0.15, 0.23),
    ]


def _default_mg_spec(mg_id: int, root: int, host: int) -> MicrogridSpec:
    """The reference microgrid on the 13-bus template rooted at bus root,
    coupled to bus host of the feeder."""
    return MicrogridSpec(
        mg_id=mg_id,
        dg=DGSpec(p_max_kw=60.0, q_max_kvar=30.0, ramp_kw=30.0,
                  fuel_price=0.57, a_f=0.0001773, b_f=0.1709, c_f=14.67),
        ess=ESSSpec(e_cap_kwh=20.0, p_ch_max_kw=4.0, p_dis_max_kw=4.0,
                    eta_ch=0.95, eta_dis=0.90, soc_min=0.1, soc_max=0.9,
                    q_max_kvar=3.0, soc_init=0.5),
        pv=PVSpec(p_rated_kw=25.0, q_max_kvar=10.0),
        pcc=PCCSpec(p_max_kw=120.0, q_max_kvar=60.0, price_per_kwh=0.046),
        bus_map=BusMap(dg=root + 3, ess=root + 6, pv=root + 9,
                       load=root + 11, pcc_mg=root, pcc_host=host),
    )


# host-feeder buses the five microgrids attach to, and the p.u.
# impedance of each coupling branch
_FEEDER_ATTACH = (5, 9, 14, 21, 26)
_PCC_R_PU, _PCC_X_PU = 0.01, 0.02


def networked_feeder_case():
    """33-bus host feeder with one 13-bus network grafted at each of the
    buses _FEEDER_ATTACH.

    Returns (GridModel, [MicrogridSpec]); the combined model has 98 buses.
    """
    base_kva = 100.0
    host_kv, mg_kv = 12.66, 4.16
    buses = [Bus(0, "slack", 0.90, 1.10)]
    buses += [Bus(i, "load", 0.90, 1.10) for i in range(1, 33)]
    base_kv = [host_kv] * 33
    z_host = host_kv ** 2 * 1000.0 / base_kva
    branches = [Branch.from_impedance(f, t, r / z_host, x / z_host, 200.0)
                for f, t, r, x in case33_branches()]
    specs = []
    z_mg = mg_kv ** 2 * 1000.0 / base_kva
    for m, host_bus in enumerate(_FEEDER_ATTACH):
        root = len(buses)
        buses += [Bus(root + k, "load", 0.90, 1.10, mg_owner=m)
                  for k in range(13)]
        base_kv += [mg_kv] * 13
        branches += [
            Branch.from_impedance(root + f, root + t, r / z_mg, x / z_mg, 50.0)
            for f, t, r, x in mg13_branches()
        ]
        branches.append(Branch.from_impedance(root, host_bus,
                                              _PCC_R_PU, _PCC_X_PU, 50.0))
        specs.append(_default_mg_spec(m, root, host_bus))
    grid = GridModel(buses, branches, base_kva, base_kv)
    return grid, specs


def nominal_loads_98(grid: GridModel, specs):
    """Representative net loads (kW, kvar) for the combined feeder case."""
    p = np.zeros(grid.n_bus)
    q = np.zeros(grid.n_bus)
    for bus, (pk, qk) in case33_loads().items():
        p[bus] += pk
        q[bus] += qk
    for spec in specs:
        bm = spec.bus_map
        p[bm.load] += 40.0
        q[bm.load] += 40.0 * spec.q_load_ratio
        p[bm.pv] -= 0.6 * spec.pv.p_rated_kw
        p[bm.dg] -= 20.0
    return p, q
