"""Statistical validation experiments and entropy-rate formulas."""

import dataclasses
import math

import numpy as np
import pytest
from scipy import integrate

from hypoguard import (
    ExperimentConfig,
    builtin_observable,
    builtin_target,
    coverage_experiment,
    girsanov_entropy_rate_langevin,
    jump_entropy_rate_zigzag,
    linear_tilt,
    mgf_experiment,
    scale_potential,
    tail_experiment,
    uq_experiment,
)
from hypoguard import validation


def small(config, **kw):
    return dataclasses.replace(config, **kw)


class TestEntropyRates:
    def test_girsanov_linear_tilt_closed_form(self, std_target):
        # |grad Vtilt - grad V|^2 = delta^2, so the rate is beta delta^2/(4 gamma)
        for delta in (0.05, 0.1, 0.3):
            for gamma in (0.5, 1.0, 2.0):
                rate = girsanov_entropy_rate_langevin(
                    std_target, linear_tilt(std_target, delta), gamma
                )
                assert rate == pytest.approx(
                    std_target.beta * delta * delta / (4.0 * gamma), rel=1e-6
                )

    def test_girsanov_scale_quadrature_oracle(self, std_target):
        factor, gamma = 1.3, 1.0
        alt = scale_potential(std_target, factor)
        beta = std_target.beta

        def integrand(x):
            diff = (factor - 1.0) * x  # grad difference for V = x^2/2
            dens = math.exp(-beta * factor * x * x / 2.0)
            return diff * diff * dens

        num, _ = integrate.quad(integrand, -40, 40)
        z, _ = integrate.quad(
            lambda x: math.exp(-beta * factor * x * x / 2.0), -40, 40
        )
        oracle = beta / (4.0 * gamma) * num / z
        assert girsanov_entropy_rate_langevin(std_target, alt, gamma) == (
            pytest.approx(oracle, rel=1e-6)
        )

    def test_jump_rate_scale_oracle(self, std_target):
        # scaled rates r~ = s r pointwise: rate is E_alt[r] (s log s - s + 1)
        s = 1.2
        alt = scale_potential(std_target, s)
        beta = std_target.beta

        def dens(x):
            return math.exp(-beta * s * x * x / 2.0)

        z, _ = integrate.quad(dens, -40, 40)
        # E over velocity in {-1,+1} of [v beta x]^+ is beta |x| / 2
        er, _ = integrate.quad(lambda x: beta * abs(x) / 2.0 * dens(x), -40, 40)
        oracle = er / z * (s * math.log(s) - s + 1.0)
        assert jump_entropy_rate_zigzag(std_target, alt) == pytest.approx(
            oracle, rel=1e-6
        )

    def test_jump_rate_linear_tilt_is_infinite(self, std_target):
        # a tilt moves the zero of the flip rate: alternative paths flip where
        # the baseline never does, in one direction for each velocity sign
        for delta in (0.1, -0.2):
            assert jump_entropy_rate_zigzag(
                std_target, linear_tilt(std_target, delta)
            ) == math.inf


class TestCoverage:
    def test_passes_at_small_scale(self, std_config):
        rep = coverage_experiment(small(std_config, replicas=30))
        assert rep.passed and not rep.vacuous
        assert rep.details["coverage"] == 1.0
        assert rep.details["stationarity"]["passed"]

    def test_bps_variant(self, std_config):
        rep = coverage_experiment(small(std_config, sampler="bps", replicas=30))
        assert rep.passed and not rep.vacuous

    def test_fault_injection_breaks_stationarity(self, std_config):
        rep = coverage_experiment(
            small(std_config, sampler="bps", replicas=60, reflection_factor=1.0)
        )
        assert not rep.details["stationarity"]["passed"]
        assert not rep.passed

    def test_nonstationary_start_prefactor(self, std_config):
        cfg = small(std_config, replicas=30, initial=(0.5, 0.7))
        assert cfg.dmu_norm() > 1.0
        rep = coverage_experiment(cfg)
        assert rep.passed


class TestTail:
    def test_passes_at_small_scale(self, std_config):
        rep = tail_experiment(small(std_config, replicas=60))
        assert rep.passed
        assert len(rep.details["grid"]) == 20  # 10 radii x 2 signs
        for row in rep.details["grid"]:
            assert row["empirical"] <= row["bound"] + 3.0 * row["std_error"] + 1e-12


class TestMGF:
    def test_passes_at_small_scale(self, std_config):
        rep = mgf_experiment(small(std_config, replicas=60))
        assert rep.passed
        assert len(rep.details["grid"]) == 5

    def test_rejects_lambda_outside_domain(self, std_config):
        with pytest.raises(ValueError):
            mgf_experiment(small(std_config, replicas=5), lambda_grid=[1e9])

    def test_rejects_negative_lambda_before_simulating(self, std_config):
        cfg = small(std_config, replicas=5)
        with pytest.raises(ValueError, match="negative"):
            mgf_experiment(cfg, lambda_grid=[0.0, -0.001])
        assert "averages" not in vars(cfg)


class TestSharedReplicaPass:
    CHECKS = (coverage_experiment, tail_experiment, mgf_experiment)

    @pytest.fixture
    def passes(self, monkeypatch):
        """The configs run_replicas was called on, in order."""
        calls, run = [], validation.run_replicas

        def spy(config):
            calls.append(config)
            return run(config)

        monkeypatch.setattr(validation, "run_replicas", spy)
        return calls

    def test_checks_on_one_config_share_one_pass(self, std_config, passes):
        cfg = small(std_config, T=20.0, replicas=10)
        shared = [check(cfg).to_dict() for check in self.CHECKS]
        assert len(passes) == 1 and passes[0] is cfg
        fresh = [check(small(cfg)).to_dict() for check in self.CHECKS]
        assert len(passes) == 4
        assert shared == fresh

    def test_replace_makes_a_new_pass(self, std_config, passes):
        cfg = small(std_config, T=20.0, replicas=10)
        coverage_experiment(cfg)
        other = dataclasses.replace(cfg, seed=cfg.seed + 1)
        coverage_experiment(other)
        assert [c.seed for c in passes] == [cfg.seed, cfg.seed + 1]
        assert not np.array_equal(cfg.averages["F"], other.averages["F"])

    def test_config_and_shared_arrays_are_read_only(self, std_config):
        cfg = small(std_config, T=20.0, replicas=10)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.seed = 1
        for arr in cfg.averages.values():
            with pytest.raises(ValueError):
                arr[0] = 0.0


@pytest.mark.parametrize("sampler", ["zigzag", "langevin"])
def test_run_replicas_averages_each_replica_in_one_pass(std_config, monkeypatch, sampler):
    calls, average = [], validation.time_average

    def spy(traj, f):
        calls.append(f)
        return average(traj, f)

    monkeypatch.setattr(validation, "time_average", spy)
    cfg = small(std_config, sampler=sampler, T=5.0, replicas=4)
    reps = validation.run_replicas(cfg)
    assert len(calls) == cfg.replicas == len(reps["F"])
    assert all(f == cfg.averaged_functions for f in calls)


def test_gaussian_start_beyond_1d_rejected_before_simulating(std_config, monkeypatch):
    target = builtin_target("gaussian_iso", dim=2)
    cfg = small(std_config, target=target, observable=builtin_observable("cos", target),
                initial=(0.5, 0.7), T=20.0, replicas=3)
    simulated = []
    monkeypatch.setattr(validation, "simulate_zigzag", lambda *a, **k: simulated.append(a))
    with pytest.raises(ValueError, match="1-D only"):
        validation.run_replicas(cfg)
    assert simulated == []


class TestUQ:
    def test_langevin_tilt_sweep(self, std_config):
        cfg = small(std_config, sampler="langevin", replicas=1)
        for delta in (0.02, 0.1, 0.4):
            rep = uq_experiment(cfg, linear_tilt(std_config.target, delta))
            assert rep.passed and not rep.vacuous
            assert rep.details["bias"] <= rep.details["bound"]

    def test_zigzag_scale_sweep(self, std_config):
        for f in (1.05, 1.2):
            rep = uq_experiment(std_config, scale_potential(std_config.target, f))
            assert rep.passed and not rep.vacuous

    def test_zigzag_tilt_flagged_vacuous(self, std_config):
        rep = uq_experiment(std_config, linear_tilt(std_config.target, 0.1))
        assert rep.vacuous and not rep.passed
        assert rep.details["entropy_rate"] == "inf"

    def test_unknown_sampler_rejected(self, std_config):
        with pytest.raises(ValueError):
            uq_experiment(
                small(std_config, sampler="bps"),
                linear_tilt(std_config.target, 0.1),
            )


def test_reports_serialize(std_config):
    rep = coverage_experiment(small(std_config, replicas=10))
    d = rep.to_dict()
    assert set(d) == {"kind", "passed", "vacuous", "seed", "details"}
