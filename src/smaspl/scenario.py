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
import re
from dataclasses import (MISSING, asdict, dataclass, field, fields,
                         is_dataclass, replace)
from datetime import datetime, timedelta
from functools import cache
from pathlib import Path
from types import UnionType
from typing import get_args, get_type_hints

import numpy as np
import yaml

from .grid import Branch, Bus, GridError, GridModel
from .microgrid import (CONTROLS, DGSpec, ESSSpec, MicrogridSpec, PCCSpec,
                        PVSpec, STEP_MINUTES, find_pcc_branch)

__all__ = [
    "ProfileSeries",
    "ForecastErrorParams",
    "Scenario",
    "ScenarioError",
    "TrainerConfig",
    "load_profiles",
    "save_profiles",
    "synth_profiles",
    "constant_profiles",
    "forecast_with_error",
    "perturb_network",
    "load_scenario",
    "load_grid_file",
    "nominal_loads_98",
]


class ScenarioError(ValueError):
    """Invalid scenario, grid or profile file contents."""


# libyaml's parser where PyYAML has it; both build the same tree
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


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
                    f"profile gap: missing 15-minute slot between "
                    f"{self.timestamps[k - 1]} and {self.timestamps[k]} "
                    f"(data rows {k}-{k + 1})"
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


# value rules of a profile's load (kW) and irradiance; NaN passes neither
_LOAD_RULE = (lambda x: 0 <= x < math.inf, "a finite number >= 0")
_IRRADIANCE_RULE = (lambda x: 0 <= x <= 1.2, "in [0, 1.2]")


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
            for name, v in zip(header[1:], vals):
                check, rule = (_IRRADIANCE_RULE if name.endswith(
                    "_irradiance") else _LOAD_RULE)
                if not check(v):
                    raise ScenarioError(
                        f"{path}:{lineno}: {name} = {v!r}, must be {rule}")
            loads.append(vals[0::2])
            irrs.append(vals[1::2])
    try:
        return ProfileSeries(stamps, np.asarray(loads), np.asarray(irrs))
    except ScenarioError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


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
    # per step of the day: the solar bell and the base load
    hours = [s * STEP_MINUTES / 60.0 for s in range(96)]
    bell = np.array([math.sin(math.pi * (h - 6.0) / 12.0) ** 2
                     if 6.0 < h < 18.0 else 0.0 for h in hours])
    base = np.array([load_base_kw + load_peak_kw * (
        math.exp(-((h - 19.0) / 2.5) ** 2)
        + 0.4 * math.exp(-((h - 7.5) / 1.5) ** 2)) for h in hours])
    for d in range(days):
        day = slice(d * 96, (d + 1) * 96)
        clearness = np.clip(rng.uniform(0.7, 1.15, mg_count), 0.0, 1.2)
        irr[day] = np.clip(clearness * bell[:, None], 0.0, 1.2)
        noise = 1.0 + 0.05 * rng.standard_normal((96, mg_count))
        load[day] = np.maximum(base[:, None] * scale * noise, 0.5)
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

@dataclass
class TrainerConfig:
    """The training settings of a scenario, with their production defaults."""

    gamma: float = 0.99
    delta: float = 1e-3
    kmax: int = 200
    rho1: float = 0.01
    rho2: float = 0.01
    dtheta: float = 1e-4
    tau: float = 0.9
    batch: int = 128
    sigma_floor: float = 0.01
    sigma_span_frac: float = 0.2
    backtrack_rounds: int = 3
    hidden_layers: list = field(default_factory=lambda: [10, 10, 10])


# value rules of the scenario-file keys that have one beyond their type,
# by dotted key with list indices written [i]; _section checks them at
# load time so that a bad value fails, naming its file and key, before
# any batch runs
_RANGES = {
    "seed": (lambda x: x >= 0, ">= 0"),
    "network_noise_variance": (lambda x: x >= 0, ">= 0"),
    "forecast_error.solar_scale": (lambda x: x >= 0, ">= 0"),
    "forecast_error.load_std_frac": (lambda x: x >= 0, ">= 0"),
    "forecast_error.beta_a": (lambda x: x > 0, "> 0"),
    "forecast_error.beta_b": (lambda x: x > 0, "> 0"),
    "profiles.synthetic.seed": (lambda x: x >= 0, ">= 0"),
    "profiles.synthetic.days": (lambda x: x >= 1, ">= 1"),
    "profiles.synthetic.load_base_kw": _LOAD_RULE,
    "profiles.synthetic.load_peak_kw": _LOAD_RULE,
    "profiles.constant.steps": (lambda x: x >= 0, ">= 0"),
    "profiles.constant.load_kw": _LOAD_RULE,
    "profiles.constant.irradiance": _IRRADIANCE_RULE,
    "training.tau": (lambda x: 0 < x < 1, "in (0, 1)"),
    "training.batch": (lambda x: x >= 1, ">= 1"),
    "training.kmax": (lambda x: x >= 1, ">= 1"),
    "training.delta": (lambda x: x > 0, "> 0"),
    "training.backtrack_rounds": (lambda x: x >= 0, ">= 0"),
    "training.gamma": (lambda x: 0 < x <= 1, "in (0, 1]"),
    "training.hidden_layers": (
        lambda x: isinstance(x, list) and len(x) > 0
        and all(type(h) is int and h >= 1 for h in x),
        "a non-empty list of positive integers"),
    "mgs[i].q_load_ratio": (math.isfinite, "a finite number"),
}
# every asset number of a microgrid; MicrogridSpec checks their signs and
# bounds, which NaN would pass
_RANGES.update({
    f"mgs[i].{asset}.{f.name}": (math.isfinite, "a finite number")
    for asset, spec in (("dg", DGSpec), ("ess", ESSSpec), ("pv", PVSpec),
                        ("pcc", PCCSpec))
    for f in fields(spec)})


@dataclass
class Scenario:
    grid: GridModel
    specs: list[MicrogridSpec]
    profiles: ProfileSeries
    window: int
    seed: int
    episodes: int = 50
    host_loads: dict = field(default_factory=dict)
    forecast_error: ForecastErrorParams = ForecastErrorParams()
    network_noise_variance: float = 0.0
    training: dict = field(default_factory=lambda: asdict(TrainerConfig()))

    def __post_init__(self):
        if self.window < 1:
            raise ScenarioError("window length must be >= 1")
        if self.profiles.n_steps < self.window:
            raise ScenarioError(
                f"profiles hold {self.profiles.n_steps} steps, window = "
                f"{self.window} needs at least {self.window}")
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


def _number(path, key, value, kind=float):
    """value as kind: a YAML number, no bool or string; for int, an int."""
    if isinstance(value, bool) or not isinstance(
            value, int if kind is int else (int, float)):
        what = "an integer" if kind is int else "a number"
        raise ScenarioError(f"{path}: {key} = {value!r}, must be {what}")
    return kind(value)


def _mapping(path, key, value) -> dict:
    """value, which must be a mapping; a key given no value reads as {}."""
    if not isinstance(value, (dict, type(None))):
        raise ScenarioError(f"{path}: {key} = {value!r}, must be a mapping")
    return value or {}


def _list(path, key, value) -> list:
    if not isinstance(value, list):
        raise ScenarioError(f"{path}: {key} = {value!r}, must be a list")
    return value


def _file(path, key, value) -> Path:
    """The file that value names, relative to the scenario's directory."""
    if not isinstance(value, str):
        raise ScenarioError(f"{path}: {key} = {value!r}, must be a file name")
    return path.parent / value


def _pair(path, key, value) -> tuple:
    """value as a pair of finite numbers."""
    if not (isinstance(value, list) and len(value) == 2):
        raise ScenarioError(
            f"{path}: {key} = {value!r}, must be a pair of numbers")
    pair = tuple(_number(path, f"{key}[{i}]", v) for i, v in enumerate(value))
    for i, v in enumerate(pair):
        if not math.isfinite(v):
            raise ScenarioError(
                f"{path}: {key}[{i}] = {v!r}, must be a finite number")
    return pair


@cache
def _schema(cls) -> tuple[dict, tuple]:
    """The key types and the required keys of a dataclass, resolved once
    per class; a field typed `X | None` is given as an X."""
    kinds = get_type_hints(cls)
    for name, kind in kinds.items():
        if isinstance(kind, UnionType):
            (kinds[name],) = set(get_args(kind)) - {type(None)}
    return kinds, tuple(f.name for f in fields(cls) if f.default is MISSING
                        and f.default_factory is MISSING)


_LIST_INDEX = re.compile(r"\[\d+\]")    # mgs[0], mgs[1]... read mgs[i]


def _section(path, key, schema, mapping, required=()) -> dict:
    """The entries of the mapping at key ("" for a file's top level) that
    the file gives, typed by schema: a dataclass, whose fields name the
    keys, their types and the required ones, or a dict {key: type} whose
    keys in required must be given.  Numbers go through _number,
    dataclass-typed entries are read as sections, and other entries pass
    unchanged; a key with a rule in _RANGES must then keep it."""
    mapping = _mapping(path, key, mapping)
    kinds, required = ((schema, required) if isinstance(schema, dict)
                       else _schema(schema))
    prefix = f"{key}." if key else ""
    ruled = _LIST_INDEX.sub("[i]", prefix)      # its keys' _RANGES prefix
    unknown = [f"{prefix}{k}" for k in mapping if k not in kinds]
    if unknown:
        raise ScenarioError(f"{path}: unknown key(s) {', '.join(unknown)}")
    for name in required:
        if name not in mapping:
            raise ScenarioError(
                f"{path}: missing required key '{prefix}{name}'")
    out = {}
    for name, value in mapping.items():
        kind, sub = kinds[name], f"{prefix}{name}"
        if kind in (int, float):
            value = _number(path, sub, value, kind)
        elif is_dataclass(kind):
            value = kind(**_section(path, sub, kind, value))
        check, rule = _RANGES.get(f"{ruled}{name}", (None, None))
        if check is not None and not check(value):
            raise ScenarioError(f"{path}: {sub} = {value!r}, must be {rule}")
        out[name] = value
    return out


def _read_yaml(path, what, schema, required) -> dict:
    """The top level of a YAML file, read as a _section."""
    with open(path) as fh:
        data = yaml.load(fh, Loader=YAML_LOADER)
    if not isinstance(data, dict):
        raise ScenarioError(f"{path}: {what} must be a mapping")
    return _section(path, "", schema, data, required)


# the keys of a grid file and of one of its branch rows; a bus row takes
# the fields of Bus plus base_kv
_GRID_FILE = {"base_power_kva": float, "buses": list, "branches": list}
_BRANCH_ROW = {"from": int, "to": int, "r": float, "x": float, "units": str,
               "i_max": float}


def load_grid_file(path) -> GridModel:
    """Load and validate a YAML grid file, converting to p.u.  Every
    failure is a ScenarioError naming the file."""
    data = _read_yaml(path, "grid file", _GRID_FILE, tuple(_GRID_FILE))
    buses, base_kv, branches = [], {}, []
    try:
        for i, row in enumerate(_list(path, "buses", data["buses"])):
            key = f"buses[{i}]"
            row = dict(_mapping(path, key, row))
            kv = _number(path, f"{key}.base_kv", row.pop("base_kv", 1.0))
            buses.append(Bus(**_section(path, key, Bus, row)))
            base_kv[buses[-1].id] = kv
        for i, row in enumerate(_list(path, "branches", data["branches"])):
            key = f"branches[{i}]"
            b = _section(path, key, _BRANCH_ROW, row, ("from", "to", "r", "x"))
            f, t, r, x = b["from"], b["to"], b["r"], b["x"]
            units = b.get("units", "pu")
            if units not in ("ohm", "pu"):
                raise ScenarioError(f"{path}: {key}.units = {units!r}, "
                                    f"must be 'ohm' or 'pu'")
            # a branch to no bus is left for GridModel to reject
            if units == "ohm" and t in base_kv:
                z_base = base_kv[t] ** 2 * 1000.0 / data["base_power_kva"]
                r, x = r / z_base, x / z_base
            branches.append(
                Branch.from_impedance(f, t, r, x, b.get("i_max", 1e9)))
        return GridModel(buses, branches, data["base_power_kva"])
    except GridError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def _mg_spec(path, i, row) -> MicrogridSpec:
    key = f"mgs[{i}]"
    given = _section(path, key, MicrogridSpec, row)
    if "action_ranges" in given:
        sub = f"{key}.action_ranges"
        ranges = _section(path, sub, dict.fromkeys(CONTROLS, list),
                          given["action_ranges"])
        given["action_ranges"] = {
            c: _pair(path, f"{sub}.{c}", v) for c, v in ranges.items()}
        for c, (lo, hi) in given["action_ranges"].items():
            if lo > hi:
                raise ScenarioError(f"{path}: {sub}.{c} = [{lo!r}, {hi!r}], "
                                    f"must have lo <= hi")
    try:
        return MicrogridSpec(**given)
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


# the keys of a scenario file; the ones a file leaves out that Scenario
# declares take its defaults
_SCENARIO_FILE = {"grid_file": str, "mgs": list, "window": int, "seed": int,
                  "episodes": int, "profiles": dict, "host_loads": dict,
                  "forecast_error": ForecastErrorParams,
                  "network_noise_variance": float, "training": dict}


def load_scenario(path) -> Scenario:
    """Load a scenario file; relative paths resolve against its directory."""
    path = Path(path)
    data = _read_yaml(path, "scenario", _SCENARIO_FILE,
                      ("grid_file", "mgs", "window", "seed"))
    grid = load_grid_file(_file(path, "grid_file", data.pop("grid_file")))
    specs = [_mg_spec(path, i, row) for i, row in
             enumerate(_list(path, "mgs", data.pop("mgs")))]

    prof = _mapping(path, "profiles", data.pop("profiles", None))
    if "file" in prof:
        series = load_profiles(_file(path, "profiles.file", prof["file"]))
    elif "synthetic" in prof:
        p = _section(path, "profiles.synthetic",
                     {"seed": int, "days": int, "load_base_kw": float,
                      "load_peak_kw": float}, prof["synthetic"])
        series = synth_profiles(p.pop("seed", data["seed"]),
                                p.pop("days", 2), len(specs), **p)
    elif "constant" in prof:
        p = _section(path, "profiles.constant",
                     {"steps": int, "load_kw": float, "irradiance": float},
                     prof["constant"])
        series = constant_profiles(p.get("steps", 96), len(specs),
                                   p.get("load_kw", 20.0),
                                   p.get("irradiance", 0.5))
    else:
        raise ScenarioError(f"{path}: profiles must name file/synthetic/constant")

    data["host_loads"] = {
        _number(path, "host_loads bus", bus, int):
        _pair(path, f"host_loads.{bus}", v) for bus, v in
        _mapping(path, "host_loads", data.get("host_loads")).items()}
    data["training"] = asdict(TrainerConfig(**_section(
        path, "training", TrainerConfig, data.get("training"))))
    try:
        return Scenario(grid=grid, specs=specs, profiles=series, **data)
    except ScenarioError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Nominal loads of the 98-bus study case
# ---------------------------------------------------------------------------

# nominal feeder loads {bus: (p_kw, q_kvar)} of the 33-bus case
_CASE33_LOADS = {
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
    for bus, (pk, qk) in _CASE33_LOADS.items():
        p[bus] += pk
        q[bus] += qk
    for spec in specs:
        bm = spec.bus_map
        p[bm.load] += 40.0
        q[bm.load] += 40.0 * spec.q_load_ratio
        p[bm.pv] -= 0.6 * spec.pv.p_rated_kw
        p[bm.dg] -= 20.0
    return p, q
