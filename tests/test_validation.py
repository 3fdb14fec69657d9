"""Statistical validation experiments and entropy-rate formulas."""

import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

from hypoguard import (
    ExperimentConfig,
    ObservableStats,
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
from hypoguard.operator_lab import verify_lambda_eig, verify_perturb_lemma


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

    @pytest.mark.parametrize("gamma", [math.nan, math.inf, 0.0, -1.0])
    def test_girsanov_rejects_a_gamma_not_finite_and_positive(self, std_target, gamma):
        alt = linear_tilt(std_target, 0.1)
        with pytest.raises(ValueError, match=f"^gamma must be finite and > 0, got {gamma}$"):
            girsanov_entropy_rate_langevin(std_target, alt, gamma)

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

    @pytest.mark.parametrize("h,beta", [(1.0, 1.0), (50.0, 1.0), (4.0, 2.5)])
    def test_girsanov_tilt_meets_its_closed_form_on_a_grid(self, h, beta):
        # grad Vtilt - grad V = delta, so the rate is beta delta^2 / (4 gamma)
        base = builtin_target("gaussian_iso", dim=1, h=h, beta=beta)
        for delta in (-0.3, 0.05, 0.1, 1.0):
            for gamma in (0.5, 1.0, 2.0):
                rate = girsanov_entropy_rate_langevin(base, linear_tilt(base, delta), gamma)
                assert rate == pytest.approx(beta * delta * delta / (4.0 * gamma), rel=1e-12)

    @pytest.mark.parametrize("h,beta", [(1.0, 1.0), (50.0, 1.0), (1e4, 1.0), (4.0, 2.5)])
    def test_girsanov_scale_meets_its_closed_form_on_a_grid(self, h, beta):
        # (f - 1)^2 h^2 E_alt[q^2] with E_alt[q^2] = 1/(beta f h): the rate is
        # (f - 1)^2 h / (4 gamma f), whatever beta
        base = builtin_target("gaussian_iso", dim=1, h=h, beta=beta)
        for f in (0.8, 1.01, 1.2, 2.0):
            for gamma in (0.5, 1.0, 2.0):
                rate = girsanov_entropy_rate_langevin(base, scale_potential(base, f), gamma)
                assert rate == pytest.approx((f - 1.0) ** 2 * h / (4.0 * gamma * f), rel=1e-12)

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
        # the baseline never does, in one direction for each velocity sign.
        # For the small tilts that set is a sliver next to 0 that no
        # quadrature node hits, so only the absolute-continuity scan sees it
        for delta in (0.1, -0.2, 1e-3, 1e-2):
            assert jump_entropy_rate_zigzag(
                std_target, linear_tilt(std_target, delta)
            ) == math.inf


    @pytest.mark.parametrize("delta_base, delta_alt", [(1e-4, 2e-4), (0.0011, 0.0013)])
    def test_jump_rate_sliver_between_grid_points_is_infinite(self, std_target, delta_base,
                                                               delta_alt):
        # the alternative flips on (-delta_alt, -delta_base) where the base
        # cannot: a set of positive mass narrower than the scan's grid step
        # (2e-3) and containing none of its points
        base, alt = (linear_tilt(std_target, d) for d in (delta_base, delta_alt))
        assert jump_entropy_rate_zigzag(base, alt) == math.inf

    def test_jump_rate_shared_zero_between_grid_points_is_finite(self, std_target):
        # the zero of both flip rates sits between grid points, where the
        # scan refines the grid, and the rates share it: no sliver, and the
        # rate is the untilted scale oracle's (a tilt shifts both alike)
        base = linear_tilt(std_target, 1e-4)
        rate = jump_entropy_rate_zigzag(base, scale_potential(base, 1.2))
        untilted = jump_entropy_rate_zigzag(std_target, scale_potential(std_target, 1.2))
        assert math.isfinite(rate) and rate == pytest.approx(untilted, rel=1e-6)


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
        assert cfg.dmu_norm > 1.0
        rep = coverage_experiment(cfg)
        assert rep.passed


class TestStationarityGateOnTheWell:
    """The Stein gate on double_well at beta = 1.5, from exact starts: 450
    replicas, T = 150, seed 7.  Observed z-scores of E[q V'] = 1/beta:
    zig-zag +0.79 and BPS -0.02 (|z| of E[V'] = 0 at most 0.41); BPS with
    reflection factor 1.8 +6.75 and 1 +47.7; zig-zag simulated at beta 1.6
    -5.4 and at 1.4 +7.4, while its start and the gate keep 1.5."""

    WELL = builtin_target("double_well", beta=1.5, poincare_const=1.0)

    @pytest.fixture(scope="class")
    def well_config(self, std_config):
        return small(std_config, target=self.WELL, replicas=450, seed=7)

    @staticmethod
    def gate(config):
        return validation._stationarity_gate(config, validation.run_replicas(config))

    @pytest.mark.parametrize("sampler", ["zigzag", "bps"])
    def test_correct_samplers_pass(self, well_config, sampler):
        gate = self.gate(small(well_config, sampler=sampler))
        assert gate["checked"] and gate["passed"]

    @pytest.mark.parametrize("factor", [1.0, 1.8])
    def test_inelastic_bps_fails(self, well_config, factor):
        gate = self.gate(small(well_config, sampler="bps", reflection_factor=factor))
        assert gate["checked"] and not gate["checks"]["mean_q_dV"]["passed"]

    @pytest.mark.parametrize("beta", [1.4, 1.6])
    def test_zigzag_at_the_wrong_beta_fails(self, well_config, monkeypatch, beta):
        simulate, wrong = validation.simulate_zigzag, dataclasses.replace(self.WELL, beta=beta)
        monkeypatch.setattr(validation, "simulate_zigzag",
                            lambda target, *args, **kw: simulate(wrong, *args, **kw))
        gate = self.gate(well_config)
        assert gate["checked"] and not gate["checks"]["mean_q_dV"]["passed"]


class TestTail:
    def test_passes_at_small_scale(self, std_config):
        rep = tail_experiment(small(std_config, replicas=60))
        assert rep.passed and not rep.vacuous
        assert len(rep.details["grid"]) == 20  # 10 radii x 2 signs
        for row in rep.details["grid"]:
            assert row["empirical"] <= row["bound"] + 3.0 * row["std_error"] + 1e-12


    @pytest.mark.parametrize("T, r_grid", [(20.0, [0.1, 0.5]), (150.0, [0.0, 1.7])],
                             ids=["bounds-at-least-1", "r-0-and-beyond-sup-norm"])
    def test_grid_that_no_sampler_can_fail_is_vacuous(self, std_config, T, r_grid):
        # every row has a bound >= 1 (at T = 20: 1.251 and 1.133; at r = 0
        # always) or an r above the sup norm 1.61, which no deviation reaches
        rep = tail_experiment(small(std_config, T=T, replicas=10), r_grid=r_grid)
        assert rep.details["violations"] == 0
        assert rep.vacuous and not rep.passed


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

    def test_report_from_numpy_stats_serialises(self, std_config):
        # NumPy scalars in the stats would make each grid row's "passed" a
        # NumPy bool, which json cannot encode
        obs = std_config.observable
        np_stats = ObservableStats(*map(np.float64, (obs.stats.mean, obs.stats.variance,
                                                      obs.stats.sup_norm)))
        cfg = small(std_config, replicas=5, T=20.0,
                    observable=dataclasses.replace(obs, stats=np_stats))
        rows = json.loads(json.dumps(mgf_experiment(cfg).to_dict()))["details"]["grid"]
        assert all(type(row["passed"]) is bool for row in rows)


class TestBadInputRejectedBeforeSimulating:
    @pytest.fixture
    def passes(self, monkeypatch):
        """The configs run_replicas was called on."""
        calls = []
        monkeypatch.setattr(validation, "run_replicas", calls.append)
        return calls

    @pytest.mark.parametrize("r", [-0.5, math.nan, math.inf])
    def test_tail_rejects_a_negative_or_non_finite_r(self, std_config, passes, r):
        with pytest.raises(ValueError, match=f"^grid point r={r} must be finite and >= 0"):
            tail_experiment(small(std_config, replicas=10), r_grid=[0.1, r])
        assert passes == []

    @pytest.mark.parametrize("lam", [math.nan, math.inf])
    def test_mgf_rejects_a_non_finite_lambda(self, std_config, passes, lam):
        with pytest.raises(ValueError, match=f"^grid point lambda={lam} is not finite"):
            mgf_experiment(small(std_config, replicas=10), lambda_grid=[0.0, lam])
        assert passes == []

    @pytest.mark.parametrize("replicas", [0, 1])
    @pytest.mark.parametrize("check", [coverage_experiment, tail_experiment, mgf_experiment])
    def test_fewer_than_two_replicas_rejected(self, std_config, passes, check, replicas):
        # one replica has no standard error, and none divides by zero
        with pytest.raises(ValueError, match=f"^replicas must be >= 2, got {replicas}$"):
            check(small(std_config, replicas=replicas))
        assert passes == []


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


REPLICA_GOLDEN = Path(__file__).parent / "data" / "replica_golden.json"


def replica_digests(config) -> dict:
    """sha256 of each array of a replica pass, as little-endian float64."""
    return {name: hashlib.sha256(np.asarray(arr, dtype="<f8").tobytes()).hexdigest()
            for name, arr in validation.run_replicas(config).items()}


# Langevin at the benchmark grid's shape: 10 replicas, T = 150, step 0.01;
# double_well at beta 1.5 from its exact starts: 40 replicas, T = 30, seed 7
_WELL_PASS = {"target": builtin_target("double_well", beta=1.5, poincare_const=1.0),
              "replicas": 40, "T": 30.0, "seed": 7}
REPLICA_PASSES = {"zigzag": {}, "hhmc": {}, "langevin": {"replicas": 10, "step": 0.01},
                  "well-zigzag": {"sampler": "zigzag", **_WELL_PASS},
                  "well-bps": {"sampler": "bps", **_WELL_PASS}}


@pytest.mark.parametrize("name", list(REPLICA_PASSES))
def test_replica_pass_is_pinned_bit_for_bit(std_config, name):
    # the reference config (200 replicas, T = 150, seed 42) from its
    # stationary start: exact HHMC's starts come from sample_position, which
    # no CLI golden reaches (its one HHMC config has a Gaussian start), and a
    # reordered Langevin step that moves one bit fails here.  Each well start
    # is a rejection draw from the init stream, so a changed proposal,
    # acceptance test or draw order moves a digest.
    # Change the file only for a deliberate change of the paths or of the
    # seed contract
    golden = json.loads(REPLICA_GOLDEN.read_text())
    config = small(std_config, **{"sampler": name, **REPLICA_PASSES[name]})
    assert replica_digests(config) == golden[name]


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
            assert rep.details["bias"] <= rep.details["bound"]
            if delta == 0.4:  # bound 2.39 >= ||f - mean||_inf = 1.61, which any bias meets
                assert rep.vacuous and not rep.passed
            else:
                assert rep.passed and not rep.vacuous

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


@pytest.mark.parametrize("build,field", [
    (lambda: validation.ValidationReport(kind="coverage", passed=True, vacuous=False, seed=0,
                                         details={}), "passed"),
    (lambda: verify_perturb_lemma(dim=2, trials=1, lambda_grid_size=2), "violations"),
    (lambda: verify_lambda_eig(trials=1), "max_abs_deviation"),
], ids=["ValidationReport", "PerturbReport", "EigReport"])
def test_reports_are_frozen(build, field):
    report = build()
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(report, field, 0)
    assert report.to_dict()[field] == getattr(report, field)
