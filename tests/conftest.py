"""Shared oracles and helpers for the test suite."""

import concurrent.futures
import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss


@pytest.fixture()
def pool_sizes(monkeypatch):
    """``max_workers`` of each process pool made; the pools start no process.

    A stand-in replaces ``concurrent.futures.ProcessPoolExecutor`` and maps
    in this process, so a test can ask for many workers at no cost.
    """
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        RecordingPool)
    return sizes


def partition_ss_by_mask(values, member: np.ndarray) -> np.ndarray:
    """Within-cluster SS for each row of a boolean membership matrix.

    Row m of ``member`` marks one side of a 2-partition; the SS of both
    sides is returned. All partitions (including the candidate under test)
    must go through this one evaluator so that SS comparisons are exact.
    """
    v = np.asarray(values, dtype=float)
    member = np.atleast_2d(member)
    out = np.zeros(member.shape[0])
    for side in (member, ~member):
        counts = side.sum(axis=1)
        means = np.where(side, v, 0.0).sum(axis=1) / counts
        out += (np.where(side, v - means[:, None], 0.0) ** 2).sum(axis=1)
    return out


def brute_force_two_partition_ss(values) -> float:
    """Minimum within-cluster SS over ALL nonempty 2-partitions.

    Exhaustive bitmask enumeration (element 0 fixed to one side, since a
    partition and its complement have the same cost); independent of the
    sorted-split shortcut under test.
    """
    v = np.asarray(values, dtype=float)
    n = v.size
    codes = np.arange(2 ** (n - 1), dtype=np.int64)
    member = ((codes[:, None] >> np.arange(n)) & 1).astype(bool)
    member[:, n - 1] = False  # last element fixed to the complement side
    member = member[member.any(axis=1)]  # drop the empty side
    return float(partition_ss_by_mask(v, member).min())


def within_ss_of_split(values, split) -> float:
    """Within-cluster SS of a TwoMeansSplit via the shared evaluator."""
    v = np.asarray(values, dtype=float)
    member = np.zeros((1, v.size), dtype=bool)
    member[0, sorted(split.low_indices)] = True
    if member[0, v.size - 1]:  # canonical orientation: last element out
        member = ~member
    return float(partition_ss_by_mask(v, member)[0])


def batch_means_se(draws_1d, n_batches: int = 30) -> float:
    """Monte Carlo standard error of a chain mean via batch means."""
    x = np.asarray(draws_1d, dtype=float)
    usable = (x.size // n_batches) * n_batches
    batches = x[:usable].reshape(n_batches, -1).mean(axis=1)
    return float(batches.std(ddof=1) / math.sqrt(n_batches))


def orthonormal_design(n: int, p: int, seed: int) -> np.ndarray:
    """n x p matrix with exactly orthonormal columns (X'X = I)."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, p)))
    return q[:, :p]


def _nig_log_marginal(y, xz, v_diag, a0, b0) -> float:
    """Log marginal of y for a fixed inclusion set and slab variances.

    The coefficient block and the error variance integrate analytically
    (normal-inverse-gamma conjugacy); constants common to all inclusion
    patterns are dropped.
    """
    n = len(y)
    if xz.shape[1] == 0:
        quad = float(y @ y)
        logdet = 0.0
    else:
        m = xz.T @ xz + np.diag(1.0 / v_diag)
        sol = np.linalg.solve(m, xz.T @ y)
        quad = float(y @ y - (xz.T @ y) @ sol)
        logdet = float(np.log(v_diag).sum() + np.linalg.slogdet(m)[1])
    return (-0.5 * logdet + math.lgamma(a0 + n / 2) - math.lgamma(a0)
            + a0 * math.log(b0) - (a0 + n / 2) * math.log(b0 + 0.5 * quad))


def exact_two_var_inclusion(y, x, prior, g_max: float = 40.0,
                            g_nodes: int = 200):
    """Exact posterior inclusion probabilities for a two-column design.

    Enumerates the four inclusion patterns and integrates the slab
    variances numerically in precision space (Gamma-distributed, light
    tail), giving an oracle that shares no code with the Gibbs sampler.
    Returns (P(z1=1|y), P(z2=1|y)).
    """
    a0, b0 = prior.ig_shape, prior.ig_scale
    ab, bb = prior.ss_beta_a, prior.ss_beta_b
    nodes, w = leggauss(g_nodes)
    g = (nodes + 1.0) * (g_max / 2.0)
    wg = w * (g_max / 2.0)
    shape, rate = a0, b0
    dens = (rate ** shape / math.gamma(shape)) * g ** (shape - 1.0) \
        * np.exp(-rate * g) * wg

    def log_prior_z(k):
        return (math.lgamma(ab + k) + math.lgamma(bb + 2 - k)
                - math.lgamma(ab + bb + 2)
                - (math.lgamma(ab) + math.lgamma(bb) - math.lgamma(ab + bb)))

    log_post = {}
    for z in [(0, 0), (1, 0), (0, 1), (1, 1)]:
        cols = [j for j in range(2) if z[j]]
        k = len(cols)
        xz = x[:, cols]
        if k == 0:
            val = _nig_log_marginal(y, xz, np.empty(0), a0, b0)
        elif k == 1:
            vals = np.array([
                _nig_log_marginal(y, xz, np.array([1.0 / gi]), a0, b0)
                for gi in g])
            mx = vals.max()
            val = mx + math.log(float(np.sum(np.exp(vals - mx) * dens)))
        else:
            vals = np.empty((g_nodes, g_nodes))
            for i, gi in enumerate(g):
                for j, gj in enumerate(g):
                    vals[i, j] = _nig_log_marginal(
                        y, xz, np.array([1.0 / gi, 1.0 / gj]), a0, b0)
            mx = vals.max()
            val = mx + math.log(float(np.sum(np.exp(vals - mx)
                                             * np.outer(dens, dens))))
        log_post[z] = val + log_prior_z(k)
    mx = max(log_post.values())
    post = {z: math.exp(v - mx) for z, v in log_post.items()}
    total = sum(post.values())
    p1 = (post[(1, 0)] + post[(1, 1)]) / total
    p2 = (post[(0, 1)] + post[(1, 1)]) / total
    return p1, p2
