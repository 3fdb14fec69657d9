"""Finite-dimensional numerical checks of the abstract operator estimates.

Two randomized verification harnesses:

* the perturbation bound sup_{|x|=1} <(A + lam M)x, x> <= psi_{2 alpha V, alpha K}(lam)
  for a dissipative A with spectral gap 1/alpha off a null vector x0 and a
  bounded perturbation M with <M x0, x0> = 0;
* the identity between the closed-form coercivity constant Lambda(eps) and
  the smallest eigenvalue of the 2x2 coupling matrix.

Both emit JSON-ready reports; violations are report content and fail the
acceptance suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .bernstein import BernsteinPair, psi
from .hypocoercivity import HypoParams, lambda_of_eps

__all__ = [
    "LabProblem",
    "random_lab_problem",
    "PerturbReport",
    "EigReport",
    "verify_perturb_lemma",
    "verify_lambda_eig",
]

# slack of the lab's exact identities and of the perturbation bound, for
# floating-point rounding in the eigensolvers
_TOL = 1e-10
# largest deviation between the closed-form Lambda(eps) and the 2x2
# eigensolver that the identity check accepts
_EIG_TOL = 1e-12


@dataclass(frozen=True)
class LabProblem:
    """Symmetric negative-semidefinite A with A x0 = 0 and spectral gap
    >= 1/alpha on x0-perp, plus a perturbation M with <M x0, x0> = 0."""

    A: np.ndarray
    M: np.ndarray
    alpha: float
    x0: np.ndarray

    def self_audit(self) -> None:
        if abs(float(self.x0 @ self.M @ self.x0)) > _TOL:
            raise AssertionError("<M x0, x0> != 0")
        if np.linalg.norm(self.A @ self.x0) > _TOL:
            raise AssertionError("A x0 != 0")
        # <Ax, x> <= -alpha^{-1} |P_perp x|^2 for all x
        P = np.eye(len(self.x0)) - np.outer(self.x0, self.x0)
        gap = np.linalg.eigvalsh(0.5 * (self.A + self.A.T) + P / self.alpha)
        if gap[-1] > _TOL:
            raise AssertionError("spectral-gap hypothesis violated")


def random_lab_problem(dim: int, rng: np.random.Generator) -> LabProblem:
    """Random problem satisfying the hypotheses exactly by construction.

    alpha is drawn uniform in [0.5, 2]; an orthogonal basis containing x0 is
    drawn via QR; A gets eigenvalue 0 on x0 and eigenvalues uniform in
    [-3/alpha, -1/alpha] on the complement.
    """
    alpha = float(rng.uniform(0.5, 2.0))
    raw = rng.standard_normal((dim, dim))
    Q, _ = np.linalg.qr(raw)
    x0 = Q[:, 0]
    evals = np.concatenate([[0.0], rng.uniform(-3.0 / alpha, -1.0 / alpha, size=dim - 1)])
    A = Q @ np.diag(evals) @ Q.T
    M = rng.standard_normal((dim, dim))
    M = M - float(x0 @ M @ x0) * np.outer(x0, x0)
    return LabProblem(A=A, M=M, alpha=alpha, x0=x0)


@dataclass(frozen=True)
class PerturbReport:
    trials: int
    dim: int
    grid_size: int
    seed: int
    max_violation: float
    max_slack: float
    violations: int

    @property
    def passed(self) -> bool:
        return self.violations == 0

    def to_dict(self) -> dict:
        return {**{f.name: getattr(self, f.name) for f in fields(self)}, "passed": self.passed}


def verify_perturb_lemma(
    dim: int = 5,
    trials: int = 200,
    lambda_grid_size: int = 50,
    seed: int = 0,
) -> PerturbReport:
    """Check the perturbation bound on random finite-dimensional problems.

    For each problem and each lam in a grid inside [0, 1/(alpha K)) the
    largest eigenvalue of sym(A + lam M) must not exceed
    psi_{2 alpha V, alpha K}(lam) + 1e-10, where V = |sym(M) x0|^2 and
    K = max(0, largest eigenvalue of sym(M)).
    """
    if dim < 2 or trials < 1:
        raise ValueError("need dim >= 2 and trials >= 1")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    worst_gap = math.inf
    worst_violation = -math.inf
    violations = 0
    for _ in range(trials):
        prob = random_lab_problem(dim, rng)
        prob.self_audit()
        sym_m = 0.5 * (prob.M + prob.M.T)
        V = float(np.dot(sym_m @ prob.x0, sym_m @ prob.x0))
        K = max(0.0, float(np.linalg.eigvalsh(sym_m)[-1]))
        pair = BernsteinPair(v=2.0 * prob.alpha * V, b=prob.alpha * K)
        lam_hi = 0.999 / (prob.alpha * K) if K > 0 else 2.0 / (prob.alpha * math.sqrt(V) + 1e-12)
        lams = np.linspace(0.0, lam_hi, lambda_grid_size)
        # the largest eigenvalue of sym(A + lam M) at every lam, in one call
        tops = np.linalg.eigvalsh(0.5 * (prob.A + prob.A.T) + lams[:, None, None] * sym_m)[:, -1]
        for lam, lhs in zip(lams.tolist(), tops.tolist()):
            rhs = psi(pair, lam)
            gap = rhs - lhs
            worst_gap = min(worst_gap, gap)
            if lhs > rhs + _TOL:
                violations += 1
                worst_violation = max(worst_violation, lhs - rhs)
    return PerturbReport(trials=trials, dim=dim, grid_size=lambda_grid_size, seed=seed,
                         max_violation=worst_violation if violations else 0.0,
                         max_slack=worst_gap, violations=violations)


@dataclass(frozen=True)
class EigReport:
    trials: int
    seed: int
    max_abs_deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_abs_deviation < self.tolerance

    def to_dict(self) -> dict:
        return {**{f.name: getattr(self, f.name) for f in fields(self)}, "passed": self.passed}


def smallest_eig_2x2(lambda_q: float, lambda_p: float, R0: float, eps: float) -> float:
    """Smallest eigenvalue of [[eps lq, -eps R0/2], [-eps R0/2, lp - eps]]
    by the quadratic formula (independent of the closed form)."""
    a = eps * lambda_q
    d = lambda_p - eps
    off = -eps * R0 / 2.0
    tr, det = a + d, a * d - off * off
    disc = math.sqrt(max(tr * tr - 4.0 * det, 0.0))
    return 0.5 * (tr - disc)


def verify_lambda_eig(trials: int = 10_000, seed: int = 0) -> EigReport:
    """Randomized identity check: closed-form Lambda(eps) vs 2x2 eigensolver."""
    if trials < 1:
        raise ValueError("need trials >= 1")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    # one row (lambda_q, lambda_p, R0, eps) per trial: the bits of four scalar
    # draws per trial, in that order
    draws = rng.uniform([1e-3, 1e-3, 0.0, 1e-6], [1.0, 5.0, 5.0, 1.0 - 1e-6], size=(trials, 4))
    worst = 0.0
    for lq, lp, r0, eps in draws.tolist():
        closed = lambda_of_eps(HypoParams(lambda_p=lp, lambda_q=lq, R0=r0, eps=eps))
        eig = smallest_eig_2x2(lq, lp, r0, eps)
        worst = max(worst, abs(closed - eig))
    return EigReport(trials=trials, seed=seed, max_abs_deviation=worst, tolerance=_EIG_TOL)
