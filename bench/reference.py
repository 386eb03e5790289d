"""Closed forms the benchmark checks lapdetect against.

Written from the paper's formulas with ``math`` and ``numpy`` only; nothing
here imports lapdetect, so a wrong value in the library cannot also be the
expected value.  All distributions are Laplace(mu, b) with density
exp(-|z - mu| / b) / (2 b).
"""

from __future__ import annotations

import math

import numpy as np


def sf(z, mu, b):
    """P(Z > z), vectorized."""
    z = np.asarray(z, dtype=float)
    t = 0.5 * np.exp(-np.abs(z - mu) / b)
    return np.where(z > mu, t, 1.0 - t)


def cdf(z, mu, b):
    """P(Z <= z), vectorized."""
    z = np.asarray(z, dtype=float)
    t = 0.5 * np.exp(-np.abs(z - mu) / b)
    return np.where(z < mu, t, 1.0 - t)


def thresholds(alpha, tail, mu0, b0):
    """Critical values (k1, k2) of the size-alpha test; k2 is None one-sided.

    Right tail: null mass alpha above k1.  Left tail: null mass alpha below k1.
    Two-sided: mass alpha/2 above k1 and below k2.
    """
    alpha = np.asarray(alpha, dtype=float)
    if tail == "two-sided":
        t = b0 * np.log(alpha)
        return mu0 - t, mu0 + t
    # Distance of the threshold from mu0, positive when alpha < 1/2.
    d = np.where(alpha < 0.5, -b0 * np.log(2.0 * alpha), b0 * np.log(2.0 * (1.0 - alpha)))
    return (mu0 + d if tail == "right" else mu0 - d), None


def rejection_mass(k1, k2, tail, mu, b):
    """Mass of Lap(mu, b) inside the critical region."""
    if tail == "right":
        return sf(k1, mu, b)
    if tail == "left":
        return cdf(k1, mu, b)
    return cdf(k2, mu, b) + sf(k1, mu, b)


def power(alpha, tail, mu0, b0, mu1, b1):
    k1, k2 = thresholds(alpha, tail, mu0, b0)
    return rejection_mass(k1, k2, tail, mu1, b1)


def kappa(k, mu0, b0, mu1, b1, direction):
    """Likelihood-ratio cutoff at threshold k (eq. for kappa with theta = b1/b0)."""
    theta = b1 / b0
    expo = (k * (1.0 + theta) - theta * mu0 - mu1) / b1
    return math.exp(expo if direction > 0 else -expo) / theta


def likelihood_ratio(z, mu0, b0, mu1, b1):
    return math.exp(abs(z - mu0) / b0 - abs(z - mu1) / b1) * b0 / b1


def kl(mu0, b0, mu1, b1):
    """D(Lap(mu0, b0) || Lap(mu1, b1)), vectorized.

    E|Z - mu1| under Lap(mu0, b0) is |dmu| + b0 exp(-|dmu| / b0).
    """
    d = np.abs(np.asarray(mu1, dtype=float) - mu0)
    return np.log(b1 / b0) - 1.0 + (d + b0 * np.exp(-d / b0)) / b1


def shift_auc(x):
    """Area under the one-sided ROC of a pure location shift by x scales.

    Z1 - Z0 for independent unit Laplace draws has upper tail
    (2 + x) e^(-x) / 4, so P(Z1 > Z0) = 1 - (2 + x) e^(-x) / 4.
    """
    x = abs(x)
    return 1.0 - 0.25 * (2.0 + x) * math.exp(-x)


def trapezoid_auc(alphas, powers):
    """Trapezoid area over the grid with the limit points (0, 0) and (1, 1)."""
    xs = np.concatenate(([0.0], alphas, [1.0]))
    ys = np.concatenate(([0.0], powers, [1.0]))
    return float(np.sum(0.5 * (ys[1:] + ys[:-1]) * np.diff(xs)))


def bias_lo(alpha, beta_bar, b0, theta):
    """Lower end of the detectable-bias interval, b0 (ln alpha + theta ln beta_bar)."""
    return b0 * (math.log(alpha) + theta * math.log(beta_bar))


def binomial_band(p, n, sigmas):
    return sigmas * math.sqrt(p * (1.0 - p) / n)


def close(got, want, rel=1e-12, abs_tol=1e-12):
    return abs(got - want) <= abs_tol + rel * abs(want)
