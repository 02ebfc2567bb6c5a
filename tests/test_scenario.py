"""Profile, forecast-error, perturbation, and scenario-file tests."""

import math
from dataclasses import asdict
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest
import yaml

from smaspl.grid import Branch, Bus, GridModel
from smaspl.scenario import (
    ForecastErrorParams,
    ProfileSeries,
    ScenarioError,
    TrainerConfig,
    constant_profiles,
    forecast_with_error,
    load_profiles,
    load_scenario,
    perturb_network,
    save_profiles,
    synth_profiles,
)

SCENARIOS = "scenarios"


class TestProfileCSV:
    def test_single_day_roundtrip(self, tmp_path):
        series = synth_profiles(seed=5, days=1, mg_count=2)
        assert series.n_steps == 96
        path = tmp_path / "profiles.csv"
        save_profiles(path, series)
        back = load_profiles(path)
        assert back.n_steps == 96
        assert np.array_equal(back.load_kw, series.load_kw)
        assert np.array_equal(back.irradiance, series.irradiance)
        assert back.timestamps == series.timestamps

    def test_gap_detected_with_location(self, tmp_path):
        series = synth_profiles(seed=5, days=1, mg_count=1)
        path = tmp_path / "gap.csv"
        save_profiles(path, series)
        lines = path.read_text().splitlines()
        del lines[10]  # remove one 15-minute slot
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ScenarioError, match="missing 15-minute slot"):
            load_profiles(path)

    def test_negative_load_rejected_with_line(self, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text(
            "timestamp,mg0_load_kw,mg0_irradiance\n"
            "2024-06-01T00:00:00,5.0,0.0\n"
            "2024-06-01T00:15:00,-2.0,0.0\n")
        with pytest.raises(ScenarioError, match=":3"):
            load_profiles(path)

    def test_malformed_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "timestamp,mg0_load_kw,mg0_irradiance\n"
            "2024-06-01T00:00:00,five,0.0\n")
        with pytest.raises(ScenarioError, match=":2"):
            load_profiles(path)


def synth_profiles_stepwise(seed, days, mg_count, load_base_kw=20.0,
                            load_peak_kw=15.0):
    """synth_profiles written as one step at a time: (load, irradiance)."""
    rng = np.random.default_rng(seed)
    load = np.empty((days * 96, mg_count))
    irr = np.empty((days * 96, mg_count))
    scale = np.clip(1.0 + 0.3 * rng.standard_normal(mg_count) * 0.5, 0.6, 1.5)
    for d in range(days):
        clearness = np.clip(rng.uniform(0.7, 1.15, mg_count), 0.0, 1.2)
        for s in range(96):
            k = d * 96 + s
            hour = s * 15 / 60.0
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
    return load, irr


class TestSynthProfiles:
    @pytest.mark.parametrize("kwargs", [
        dict(seed=98, days=7, mg_count=5, load_base_kw=25.0,
             load_peak_kw=20.0),
        dict(seed=0, days=2, mg_count=2),
        dict(seed=5, days=3, mg_count=1),
    ], ids=["paper98", "two-days", "one-mg"])
    def test_equals_the_stepwise_loop_bit_for_bit(self, kwargs):
        series = synth_profiles(**kwargs)
        load, irr = synth_profiles_stepwise(**kwargs)
        assert np.array_equal(series.load_kw, load)
        assert np.array_equal(series.irradiance, irr)

    def test_seed_determinism(self):
        a = synth_profiles(seed=9, days=2, mg_count=3)
        b = synth_profiles(seed=9, days=2, mg_count=3)
        assert np.array_equal(a.load_kw, b.load_kw)
        assert np.array_equal(a.irradiance, b.irradiance)

    def test_midnight_irradiance_zero(self):
        series = synth_profiles(seed=1, days=2, mg_count=2)
        for day in range(2):
            assert not series.irradiance[day * 96].any()        # 00:00
            assert not series.irradiance[day * 96 + 4].any()    # 01:00

    def test_daily_load_integral_band(self):
        base, peak = 20.0, 15.0
        series = synth_profiles(seed=3, days=3, mg_count=4,
                                load_base_kw=base, load_peak_kw=peak)
        # kWh per day per MG; generator scale factor stays within 0.6-1.5
        daily = series.load_kw[:96].sum(axis=0) * 0.25
        lo = 24 * base * 0.5
        hi = 24 * (base + peak) * 1.6
        assert np.all(daily > lo) and np.all(daily < hi)

    def test_loads_strictly_positive(self):
        series = synth_profiles(seed=4, days=2, mg_count=3)
        assert np.all(series.load_kw > 0)

    def test_irradiance_band(self):
        series = synth_profiles(seed=8, days=4, mg_count=2)
        assert series.irradiance.min() >= 0.0
        assert series.irradiance.max() <= 1.2


class TestProfileSeriesValidation:
    def test_gap_rejected_at_construction(self):
        t0 = datetime(2024, 6, 1)
        stamps = [t0, t0 + timedelta(minutes=15), t0 + timedelta(minutes=45)]
        with pytest.raises(ScenarioError, match="gap"):
            ProfileSeries(stamps, np.ones((3, 1)), np.zeros((3, 1)))

    def test_window_bounds_checked(self):
        series = constant_profiles(10, 1, 5.0, 0.2)
        with pytest.raises(ScenarioError, match="outside"):
            series.window(8, 4)


class TestForecastError:
    def setup_method(self):
        self.series = constant_profiles(32, 1, 10.0, 0.6)

    def test_zero_variance_equals_truth(self):
        rng = np.random.default_rng(0)
        irr, load = forecast_with_error(self.series, 0, 4,
                                        ForecastErrorParams(), rng)
        assert np.array_equal(irr, self.series.irradiance[:4])
        assert np.array_equal(load, self.series.load_kw[:4])

    def test_zero_mean_errors(self):
        # accumulate many windows; clipping is inactive at these levels
        params = ForecastErrorParams(solar_scale=0.1, load_std_frac=0.02)
        rng = np.random.default_rng(42)
        irr_err, load_err = [], []
        for _ in range(2500):
            irr, load = forecast_with_error(self.series, 0, 4, params, rng)
            irr_err.extend((irr - 0.6).ravel())
            load_err.extend((load - 10.0).ravel())
        for err, sd in ((np.array(irr_err), 0.1 * 0.447),
                        (np.array(load_err), 0.02 * 10)):
            se = sd / np.sqrt(err.size)
            assert abs(err.mean()) <= 3 * se

    def test_clipping_contract(self):
        series = constant_profiles(32, 1, 0.05, 0.01)
        params = ForecastErrorParams(solar_scale=0.5, load_std_frac=2.0)
        rng = np.random.default_rng(7)
        for _ in range(200):
            irr, load = forecast_with_error(series, 0, 4, params, rng)
            assert np.all(load >= 0.0)
            assert np.all(irr >= 0.0) and np.all(irr <= 1.2)


class TestPerturbNetwork:
    def grid(self):
        buses = [Bus(0, "slack"), Bus(1), Bus(2)]
        branches = [Branch.from_impedance(0, 1, 0.01, 0.02, 5.0),
                    Branch.from_impedance(1, 2, 0.02, 0.03, 5.0)]
        return GridModel(buses, branches)

    def test_zero_variance_identity(self):
        g = self.grid()
        assert perturb_network(g, 0.0, 1) is g

    def test_multiplier_variance_monte_carlo(self):
        g = self.grid()
        r0 = np.array([(1 / br.y).real for br in g.branches])
        samples = []
        for seed in range(2500):
            gp = perturb_network(g, 0.1, seed)
            r1 = np.array([(1 / br.y).real for br in gp.branches])
            samples.extend(r1 / r0 - 1.0)
        samples = np.array(samples)
        # slight truncation from resampling non-positive draws
        assert abs(samples.var() - 0.1) < 0.01
        assert abs(samples.mean()) < 0.02

    def test_rebuilt_admittance_consistent(self):
        g = self.grid()
        gp = perturb_network(g, 0.1, 3)
        assert gp.branches != g.branches
        assert np.array_equal(gp.y_bus.toarray(),
                              GridModel(g.buses, gp.branches).y_bus.toarray())
        assert np.array_equal(gp.branch_y, [br.y for br in gp.branches])

    def test_positive_impedances(self):
        for seed in range(50):
            gp = perturb_network(self.grid(), 0.3, seed)
            for br in gp.branches:
                z = 1 / br.y
                assert z.real > 0 and z.imag > 0


class TestScenarioFiles:
    @pytest.mark.parametrize("name", [
        "two_mg_binding.yaml", "two_mg_feasible.yaml",
        "two_mg_backtrack.yaml", "five_mg_lineflow.yaml",
        "five_mg_feasible.yaml", "tiny_oracle.yaml",
    ])
    def test_shipped_fixtures_load(self, name):
        sc = load_scenario(f"{SCENARIOS}/{name}")
        assert sc.window >= 1
        assert sc.profiles.n_mg == len(sc.specs)
        assert sc.seed is not None

    def test_missing_key_reported(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("seed: 1\nwindow: 4\n")
        with pytest.raises(ScenarioError, match="missing"):
            load_scenario(path)

    def test_bus_map_validated_at_load_time(self, tmp_path):
        import shutil
        shutil.copytree(f"{SCENARIOS}/grids", tmp_path / "grids")
        src = Path(f"{SCENARIOS}/tiny_oracle.yaml").read_text()
        bad = src.replace(
            "bus_map: {dg: 3, ess: 3, pv: 3, load: 3, pcc_mg: 2, pcc_host: 1}",
            "bus_map: {dg: 9, ess: 3, pv: 3, load: 3, pcc_mg: 2, pcc_host: 1}")
        (tmp_path / "bad.yaml").write_text(bad)
        with pytest.raises(ScenarioError, match="bus_map.dg"):
            load_scenario(tmp_path / "bad.yaml")
        # coupling branch must exist between the named terminals
        bad2 = src.replace("pcc_mg: 2, pcc_host: 1", "pcc_mg: 3, pcc_host: 1")
        (tmp_path / "bad2.yaml").write_text(bad2)
        with pytest.raises(ScenarioError, match="no branch"):
            load_scenario(tmp_path / "bad2.yaml")

    def test_reference_file_shows_the_defaults(self):
        # scenario_reference.yaml says its training and forecast_error
        # keys show the defaults; every key is given there
        with open(f"{SCENARIOS}/scenario_reference.yaml") as fh:
            data = yaml.safe_load(fh)
        assert data["training"] == asdict(TrainerConfig())
        assert data["forecast_error"] == asdict(ForecastErrorParams())

    def test_negative_variance_rejected(self, tmp_path):
        src = Path(f"{SCENARIOS}/tiny_oracle.yaml").read_text()
        path = tmp_path / "neg.yaml"
        path.write_text(src.replace("network_noise_variance: 0.0",
                                    "network_noise_variance: -0.5"))
        import shutil
        shutil.copytree(f"{SCENARIOS}/grids", tmp_path / "grids")
        with pytest.raises(ScenarioError, match="variance"):
            load_scenario(path)


class TestReferenceNetwork:
    def test_combined_case_scale(self):
        case = load_scenario(f"{SCENARIOS}/paper98.yaml")
        grid, specs = case.grid, case.specs
        assert grid.n_bus == 98
        assert len(specs) == 5
        assert grid.n_branch == 32 + 5 * 12 + 5
        hosts = {s.bus_map.pcc_host for s in specs}
        assert hosts == {5, 9, 14, 21, 26}
