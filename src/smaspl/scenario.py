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

from .grid import Branch, GridModel, load_grid_file
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
    "case33_loads",
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


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _convert(path, key, value, kind):
    """kind(value), where a value of the wrong type raises ScenarioError
    naming the file and the key."""
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        what = "an integer" if kind is int else "a number"
        raise ScenarioError(
            f"{path}: {key} = {value!r}, must be {what}") from exc


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
        window = _convert(path, "window", data["window"], int)
        episodes = _convert(path, "episodes", data.get("episodes", 50), int)
        seed = _convert(path, "seed", data["seed"], int)
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
    for key, value in training.items():
        if key == "hidden_layers":
            ok = (isinstance(value, list) and len(value) > 0
                  and all(_is_number(h) and isinstance(h, int) and h >= 1
                          for h in value))
            rule = "a non-empty list of positive integers"
        elif not _is_number(value):
            ok, rule = False, "a number"
        else:
            check, rule = _TRAINING_RANGES.get(key, (None, None))
            ok = check is None or check(value)
        if not ok:
            raise ScenarioError(
                f"{path}: training.{key} = {value!r}, must be {rule}")
    return Scenario(
        grid=grid, specs=specs, profiles=series, window=window,
        episodes=episodes, seed=seed, host_loads=host_loads,
        forecast_error=err,
        network_noise_variance=_convert(
            path, "network_noise_variance",
            data.get("network_noise_variance", 0.0), float),
        training=training,
    )


# ---------------------------------------------------------------------------
# Nominal loads of the 98-bus study case
# ---------------------------------------------------------------------------

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


def nominal_loads_98(grid: GridModel, specs):
    """Representative net loads (kW, kvar) for the 98-bus study case, whose
    grid and microgrids are those of scenarios/paper98.yaml."""
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
