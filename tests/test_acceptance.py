"""Acceptance suite: one test per certification criterion.

Each test prints a single PASS/FAIL line so the suite doubles as a
certification report.  Criteria:

 1. Legendre transform closed form vs numeric supremum (1e-8 relative),
    inverse round trip (1e-10), on randomized inputs.
 2. Contraction rate Lambda(eps) vs 2x2 eigensolver (1e-12) and the
    admissibility threshold vs its closed form (1e-9).
 3. Matrix perturbation bound: zero violations on random problems.
 4. Sampler exactness: thinning vs inversion (KS < 0.02), elastic bounces
    (1e-12), stationary moments within 3 MC standard errors.
 5. Coverage certification at delta = 0.1 with non-vacuous radii.
 6. Tail domination on an r-grid, both signs.
 7. Exponential-moment (MGF) domination on a lambda-grid.
 8. Bias bound vs exact bias under model perturbations, with entropy rates
    checked against quadrature oracles (1e-6).
 9. Byte-identical CLI output for fixed config and seed.
10. Fault sensitivity: an inelastic (factor-1) reflection map must be caught.
"""

import dataclasses
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy import integrate
from scipy import stats as sps

from hypoguard import (
    BernsteinPair,
    ExperimentConfig,
    HypoParams,
    MomentumModel,
    builtin_observable,
    builtin_target,
    coverage_experiment,
    eps_max,
    girsanov_entropy_rate_langevin,
    invert_affine_rate,
    jump_entropy_rate_zigzag,
    lambda_of_eps,
    lambda_q_from_target,
    linear_tilt,
    mgf_experiment,
    optimal_eps,
    psi,
    psi_star,
    psi_star_inv,
    sample_by_thinning,
    scale_potential,
    simulate_bps,
    simulate_hhmc,
    simulate_zigzag,
    tail_experiment,
    time_average,
    uq_experiment,
)
from hypoguard.operator_lab import verify_lambda_eig, verify_perturb_lemma
from hypoguard.samplers import replica_seed


def report(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {status}: {label}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} failed: {label} {detail}"


def make_config(**kw):
    target = builtin_target("gaussian_iso", dim=1, h=1.0, beta=1.0)
    obs = builtin_observable("cos", target, omega=1.0)
    lam_q = lambda_q_from_target(C_nu=target.poincare_const, kappa_p=1.0)
    hypo = HypoParams(lambda_p=1.0, lambda_q=lam_q, R0=1.0,
                      eps=optimal_eps(lam_q, 1.0, 1.0))
    base = dict(sampler="zigzag", target=target, observable=obs, hypo=hypo,
                T=150.0, delta=0.1, replicas=200, seed=42)
    base.update(kw)
    return ExperimentConfig(**base)


def test_criterion_1_bernstein_algebra():
    t0 = time.time()
    rng = np.random.default_rng(1)
    max_rel_sup = 0.0
    max_rel_round = 0.0
    for _ in range(1000):
        pair = BernsteinPair(v=rng.uniform(0.05, 20.0), b=rng.uniform(0.0, 10.0))
        r = rng.uniform(0.01, 20.0)
        # numeric Legendre supremum over lambda in [0, 1/b)
        hi = 1.0 / pair.b if pair.b > 0 else 100.0
        grid = np.linspace(0.0, hi, 2001)[:-1]
        vals = grid * r - pair.v * grid**2 / (2.0 * (1.0 - grid * pair.b))
        k = int(np.argmax(vals))
        a, c = grid[max(k - 1, 0)], grid[min(k + 1, len(grid) - 1)]
        phi = (math.sqrt(5.0) - 1.0) / 2.0
        for _ in range(120):
            x1, x2 = c - phi * (c - a), a + phi * (c - a)
            f1 = x1 * r - psi(pair, x1)
            f2 = x2 * r - psi(pair, x2)
            if f1 < f2:
                a = x1
            else:
                c = x2
        lam = 0.5 * (a + c)
        oracle = lam * r - psi(pair, lam)
        closed = psi_star(pair, r)
        max_rel_sup = max(max_rel_sup, abs(closed - oracle) / max(oracle, 1e-300))
        eta = rng.uniform(1e-6, 20.0)
        back = psi_star(pair, psi_star_inv(pair, eta))
        max_rel_round = max(max_rel_round, abs(back - eta) / eta)
    elapsed = time.time() - t0
    ok = max_rel_sup < 1e-8 and max_rel_round < 1e-10 and elapsed < 5.0
    report(1, "Legendre closed form and inverse round trip", ok,
           f"sup dev {max_rel_sup:.2e}, round trip {max_rel_round:.2e}, {elapsed:.1f}s")


def test_criterion_2_contraction_rate_identity():
    t0 = time.time()
    eig = verify_lambda_eig(trials=10_000, seed=2)
    rng = np.random.default_rng(3)
    max_thresh_dev = 0.0
    for _ in range(300):
        lq = rng.uniform(0.05, 1.0)
        lp = rng.uniform(0.05, 5.0)
        R0 = rng.uniform(0.0, 4.0)
        closed = 4.0 * lq * lp / (4.0 * lq + R0 * R0)
        if closed < 1.0:
            max_thresh_dev = max(max_thresh_dev,
                                 abs(eps_max(lq, lp, R0) - closed))
    elapsed = time.time() - t0
    ok = eig.passed and max_thresh_dev < 1e-9 and elapsed < 5.0
    report(2, "contraction rate vs eigensolver and threshold closed form", ok,
           f"eig dev {eig.max_abs_deviation:.2e}, threshold dev {max_thresh_dev:.2e}, {elapsed:.1f}s")


def test_criterion_3_perturbation_lemma():
    t0 = time.time()
    rep = verify_perturb_lemma(dim=5, trials=200, lambda_grid_size=50, seed=4)
    elapsed = time.time() - t0
    ok = rep.passed and elapsed < 30.0
    report(3, "matrix perturbation bound on random problems", ok,
           f"violations {rep.violations}/200, worst margin {rep.max_violation:.2e}, {elapsed:.1f}s")


def test_criterion_4_sampler_exactness():
    t0 = time.time()
    # (a) thinning vs exact inversion for rate 1 + t
    rng1 = np.random.default_rng(100)
    thin = np.array([
        sample_by_thinning(lambda s: 1.0 + s, lambda t, w: 1.0,
                           window=0.5, rng=rng1, horizon=50.0)
        for _ in range(10_000)
    ])
    rng2 = np.random.default_rng(200)
    exact = np.array([invert_affine_rate(1.0, 1.0, rng2.exponential())
                      for _ in range(10_000)])
    ks = float(sps.ks_2samp(thin, exact).statistic)

    # (b) every bounce is elastic
    target2 = builtin_target("gaussian_iso", dim=2, h=1.0, beta=1.0)
    mom2 = MomentumModel(kind="gaussian", mass=1.0, beta=1.0)
    traj = simulate_bps(target2, mom2, refresh_rate=0.2, T=200.0, seed=3)
    # bounce k ends flight k and starts flight k + 1
    p0 = traj.segments.p0
    bounce_dev = max(
        (abs(np.linalg.norm(p0[k + 1]) - np.linalg.norm(p0[k]))
         for k in np.flatnonzero(traj.events.kind == "bounce")),
        default=math.inf,
    )

    # (c) stationary first/second moments, 3 MC standard errors
    target = builtin_target("gaussian_iso", dim=1, h=1.0, beta=2.0)
    mom = MomentumModel(kind="gaussian", mass=1.0, beta=2.0)
    sims = {
        "zigzag": lambda s: simulate_zigzag(target, T=100.0, seed=s),
        "bps": lambda s: simulate_bps(target, mom, refresh_rate=1.0, T=100.0, seed=s),
        "hhmc": lambda s: simulate_hhmc(target, mom, resample_rate=1.0, T=100.0, seed=s),
    }
    moment_ok = True
    moment_detail = []
    for name, sim in sims.items():
        q1, q2 = [], []
        for i in range(50):
            tr = sim(replica_seed(7, i))
            q1.append(time_average(tr, lambda q: q[..., 0]))
            q2.append(time_average(tr, lambda q: q[..., 0] ** 2))
        for vals, expect, label in ((q1, 0.0, "E[q]"), (q2, 0.5, "E[q^2]")):
            m = float(np.mean(vals))
            se = float(np.std(vals, ddof=1)) / math.sqrt(len(vals))
            inside = abs(m - expect) <= 3.0 * se
            moment_ok &= inside
            moment_detail.append(f"{name} {label} dev {abs(m - expect):.3f} (3se {3 * se:.3f})")

    elapsed = time.time() - t0
    ok = ks < 0.02 and bounce_dev < 1e-12 and moment_ok and elapsed < 180.0
    report(4, "sampler exactness (thinning, elasticity, moments)", ok,
           f"KS {ks:.4f}, bounce dev {bounce_dev:.1e}, {elapsed:.1f}s")


def test_criterion_5_coverage():
    t0 = time.time()
    ok = True
    detail = []
    for sampler in ("zigzag", "bps"):
        rep = coverage_experiment(make_config(sampler=sampler, replicas=200))
        cov = rep.details["coverage"]
        ok &= rep.passed and not rep.vacuous
        detail.append(f"{sampler} coverage {cov:.3f} (need {rep.details['required']:.3f})")
    elapsed = time.time() - t0
    ok &= elapsed < 300.0
    report(5, "coverage certification, zig-zag and bouncy particle", ok,
           "; ".join(detail) + f", {elapsed:.1f}s")


def test_criterion_6_tail_domination():
    t0 = time.time()
    rep = tail_experiment(make_config(replicas=500))
    elapsed = time.time() - t0
    ok = rep.passed and rep.details["violations"] == 0 and elapsed < 300.0
    report(6, "tail domination on 10-point r-grid, both signs", ok,
           f"violations {rep.details['violations']}/20, {elapsed:.1f}s")


def test_criterion_7_mgf_bound():
    t0 = time.time()
    rep = mgf_experiment(make_config(replicas=500))
    elapsed = time.time() - t0
    worst = max(
        row["empirical"] - (row["bound"] + 3.0 * row["std_error_log"] / 150.0)
        for row in rep.details["grid"]
    )
    ok = rep.passed and elapsed < 300.0
    report(7, "exponential-moment bound on 5-point lambda-grid", ok,
           f"worst slack {-worst:.4f}, {elapsed:.1f}s")


def test_criterion_8_uq_bias_bound():
    t0 = time.time()
    target = builtin_target("gaussian_iso", dim=1, h=1.0, beta=1.0)

    # entropy rates vs quadrature oracles (1e-6)
    delta0, gamma = 0.2, 1.0
    girsanov = girsanov_entropy_rate_langevin(target, linear_tilt(target, delta0), gamma)
    girsanov_oracle = target.beta * delta0**2 / (4.0 * gamma)
    s = 1.2
    jump = jump_entropy_rate_zigzag(target, scale_potential(target, s))

    def dens(x):
        return math.exp(-target.beta * s * x * x / 2.0)

    z, _ = integrate.quad(dens, -40, 40)
    er, _ = integrate.quad(lambda x: target.beta * abs(x) / 2.0 * dens(x), -40, 40)
    jump_oracle = er / z * (s * math.log(s) - s + 1.0)
    rates_ok = (abs(girsanov - girsanov_oracle) < 1e-6
                and abs(jump - jump_oracle) < 1e-6)

    # Langevin constants with the linear tilt, 5-point sweep
    # (at 0.4 the bound exceeds ||f - mean||_inf: vacuous, so not a pass)
    lg_cfg = make_config(sampler="langevin", replicas=1)
    lg_reps = {d: uq_experiment(lg_cfg, linear_tilt(target, d))
               for d in (0.02, 0.05, 0.1, 0.2, 0.4)}
    lg_ok = all(rep.details["bias"] <= rep.details["bound"] for rep in lg_reps.values())
    lg_ok &= all(rep.passed and not rep.vacuous for d, rep in lg_reps.items() if d <= 0.2)
    lg_ok &= lg_reps[0.4].vacuous and not lg_reps[0.4].passed

    # zig-zag jump rate: the linear tilt breaks absolute continuity (flagged,
    # bound vacuously true); the certification sweep uses potential scaling
    zz_cfg = make_config(sampler="zigzag", replicas=1)
    tilt_rep = uq_experiment(zz_cfg, linear_tilt(target, 0.1))
    tilt_flagged = tilt_rep.vacuous and tilt_rep.details["entropy_rate"] == "inf"
    zz_ok = all(
        uq_experiment(zz_cfg, scale_potential(target, f)).passed
        for f in (1.02, 1.05, 1.1, 1.2, 1.4)
    )
    elapsed = time.time() - t0
    ok = rates_ok and lg_ok and tilt_flagged and zz_ok and elapsed < 120.0
    report(8, "bias bound dominates exact bias across perturbation sweep", ok,
           f"girsanov dev {abs(girsanov - girsanov_oracle):.1e}, "
           f"jump dev {abs(jump - jump_oracle):.1e}, {elapsed:.1f}s")


CLI_CONFIG = {
    "hypo": {"lambda_p": 1.0, "lambda_q": 0.5, "R0": 1.0, "eps": "auto"},
    "target": {"name": "gaussian_iso", "dim": 1, "h": 1.0, "beta": 1.0},
    "observable": {"name": "cos", "omega": 1.0},
    "sampler": {"name": "zigzag", "refresh_rate": 1.0},
    "T": 150.0,
    "delta": 0.1,
    "replicas": 40,
    "seed": 42,
}


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "hypoguard", *args],
                          capture_output=True, text=True)


def test_criterion_9_determinism(tmp_path):
    p = tmp_path / "config.json"
    p.write_text(json.dumps(CLI_CONFIG))
    subcommands = [
        ["constants"], ["ci"], ["sample"],
        ["validate", "coverage"], ["validate", "tail"],
        ["validate", "mgf"], ["lab", "perturb"], ["lab", "eigen"],
    ]
    ok = True
    for sub in subcommands:
        a = run_cli(*sub, "--config", str(p))
        b = run_cli(*sub, "--config", str(p))
        ok &= a.returncode == b.returncode and a.stdout == b.stdout
    report(9, "byte-identical output for every subcommand", ok,
           f"{len(subcommands)} subcommands")


def test_criterion_10_fault_sensitivity(tmp_path):
    t0 = time.time()
    cfg = dict(CLI_CONFIG, sampler={"name": "bps", "refresh_rate": 1.0,
                                    "reflection_factor": 1.0},
               replicas=60)
    p = tmp_path / "fault.json"
    p.write_text(json.dumps(cfg))
    res = run_cli("validate", "coverage", "--config", str(p))
    payload = json.loads(res.stdout)
    gate = payload["report"]["details"]["stationarity"]
    elapsed = time.time() - t0
    ok = res.returncode != 0 and not gate["passed"] and elapsed < 180.0
    report(10, "inelastic reflection is detected (nonzero exit)", ok,
           f"exit {res.returncode}, stationarity gate failed, {elapsed:.1f}s")
