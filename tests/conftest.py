"""Shared fixtures: a standard 1-D Gaussian setting used across test modules.

Property tests draw the same examples on every run (``derandomize``) and
have no per-example deadline, whose timing on a loaded host would make
them flaky.  The report header names the Python and NumPy a run used: the
digests in ``tests/data`` were recorded under NumPy 2.4.6, and NumPy does
not promise the same streams and roundings across releases.
"""

import platform

import numpy as np
import pytest
from hypothesis import settings

from hypoguard import (
    ExperimentConfig,
    HypoParams,
    builtin_observable,
    builtin_target,
    lambda_q_from_target,
    optimal_eps,
)

settings.register_profile("hypoguard", derandomize=True, deadline=None)
settings.load_profile("hypoguard")


def pytest_report_header(config):
    return f"python {platform.python_version()}, numpy {np.__version__}"


@pytest.fixture(scope="session")
def std_target():
    return builtin_target("gaussian_iso", dim=1, h=1.0, beta=1.0)


@pytest.fixture(scope="session")
def std_observable(std_target):
    return builtin_observable("cos", std_target, omega=1.0)


@pytest.fixture(scope="session")
def std_hypo(std_target):
    lam_q = lambda_q_from_target(C_nu=std_target.poincare_const, kappa_p=1.0)
    eps = optimal_eps(lam_q, 1.0, 1.0)
    return HypoParams(lambda_p=1.0, lambda_q=lam_q, R0=1.0, eps=eps)


@pytest.fixture(scope="session")
def std_config(std_target, std_observable, std_hypo):
    return ExperimentConfig(
        sampler="zigzag",
        target=std_target,
        observable=std_observable,
        hypo=std_hypo,
        T=150.0,
        delta=0.1,
        replicas=200,
        seed=42,
    )
