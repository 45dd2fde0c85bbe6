"""Point-by-point reference for the grid evaluator: one bias point at a time.

These are the per-point weighting, histogram and estimator bodies the package
ran before it evaluated the bias grid in array blocks, kept verbatim (with the
statespace helpers they called) so the tests can demand that the block
evaluator reproduces them bit for bit.  :func:`run` is the old per-point loop
of ``runner._run``.  Nothing in the package imports this module.
"""

from __future__ import annotations

import math

import numpy as np

from demon_ep.entropy import EpResult
from demon_ep.protocol import SigmaHistogram, Trajectory, TrajectoryTable
from demon_ep.statespace import GibbsSpec, extended_gibbs


# ---------------------------------------------------------------------------
# statespace


def gibbs_distribution(beta_omega: float, levels: int) -> np.ndarray:
    n = np.arange(levels, dtype=float)
    weights = np.exp(-beta_omega * n)
    return weights / weights.sum()


def shannon_entropy(dist) -> float:
    p = np.asarray(dist, dtype=float).ravel()
    nz = p[p > 0.0]
    return float(-np.dot(nz, np.log(nz)))


def relative_entropy(p, q) -> float:
    p = np.asarray(p, dtype=float).ravel()
    q = np.asarray(q, dtype=float).ravel()
    mask = p > 0.0
    pm, qm = p[mask], q[mask]
    if (qm <= 0.0).any():
        return math.inf
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        logs = np.log(pm / qm)
    total = float(np.dot(pm, logs))
    if math.isfinite(total):
        return total
    lost = np.isinf(logs)
    logs[lost] = np.log(pm[lost]) - np.log(qm[lost])
    return float(np.dot(pm, logs))


# ---------------------------------------------------------------------------
# protocol


def weight_forward(cond, gibbs, dims) -> TrajectoryTable:
    p_qubit = gibbs_distribution(gibbs.beta_qubit, 2)
    p_cavity = gibbs_distribution(gibbs.beta_cavity, dims.dim_cavity_init)
    probs = np.einsum("mkfnc,n,c->nkcmf", cond, p_qubit, p_cavity)
    return TrajectoryTable(probs, "forward", gibbs, dims, conditionals=cond)


def weight_backward(bcond, gibbs, pk, dims, reset=None) -> TrajectoryTable:
    zeta_q = gibbs_distribution(gibbs.beta_qubit, 2)
    w_cav = extended_gibbs(gibbs.beta_cavity, dims.dim_cavity_init, dims.dim_cavity_full)
    prior_qk = np.outer(zeta_q, np.asarray(pk, dtype=float))
    if not bcond[:, :, 1, 0].any():
        prior_qk[0, 0] += prior_qk[1, 0]
        prior_qk[1, 0] = 0.0
    weights = prior_qk[:, :, None] * w_cav[None, None, :]
    joint = bcond * weights[None, None, :, :, :]
    init = dims.dim_cavity_init
    labeled = np.transpose(joint[:, :init], (0, 3, 1, 2, 4))
    unlabeled = float(joint[:, init:].sum())
    reset_prob = None
    if reset is not None:
        total = float(weights.sum())
        reset_prob = float((reset * weights).sum() / total) if total > 0 else None
    return TrajectoryTable(
        labeled, "backward", gibbs, dims,
        prior_mass=float(weights.sum()),
        unlabeled_mass=unlabeled,
        demon_reset_prob=reset_prob,
        conditionals=bcond,
    )


def branch_probability(table) -> np.ndarray:
    return table.probs.sum(axis=(0, 2, 3, 4))


def point_tables(kernel, gibbs):
    fwd = weight_forward(kernel.forward_cond, gibbs, kernel.dims)
    if kernel.backward_cond is None:
        return fwd, None
    bwd = weight_backward(
        kernel.backward_cond, gibbs, branch_probability(fwd), kernel.dims,
        reset=kernel.backward_reset,
    )
    return fwd, bwd


def sigma_grid(gibbs, pk, dims) -> np.ndarray:
    n_q = np.arange(2)
    n_c = np.arange(dims.dim_cavity_init)
    m_q = np.arange(2)
    m_c = np.arange(dims.dim_cavity_full)
    with np.errstate(divide="ignore"):
        log_pk = np.log(np.asarray(pk, dtype=float))
    out = (
        gibbs.beta_qubit * (m_q[None, None, None, :, None] - n_q[:, None, None, None, None])
        + gibbs.beta_cavity * (m_c[None, None, None, None, :] - n_c[None, None, :, None, None])
        - log_pk[None, :, None, None, None]
    )
    return np.broadcast_to(out, (2, 2, dims.dim_cavity_init, 2, dims.dim_cavity_full)).copy()


def sigma_histogram(fwd, bwd, tol: float = 1e-9) -> SigmaHistogram:
    pk = branch_probability(fwd)
    sig = sigma_grid(fwd.gibbs, pk, fwd.dims)
    mask = fwd.probs > 0.0
    order = np.argsort(sig[mask], kind="stable")
    sigmas = sig[mask][order]
    p_f = fwd.probs[mask][order]
    p_b = bwd.probs[mask][order]
    bins: list[float] = []
    acc_f: list[float] = []
    acc_b: list[float] = []
    for s, f, b in zip(sigmas, p_f, p_b):
        if bins and s - bins[-1] <= tol:
            acc_f[-1] += f
            acc_b[-1] += b
        else:
            bins.append(float(s))
            acc_f.append(float(f))
            acc_b.append(float(b))
    return SigmaHistogram(np.array(bins), np.array(acc_f), np.array(acc_b), tolerance=tol)


# ---------------------------------------------------------------------------
# entropy


def thermal_reference(gibbs, dims) -> np.ndarray:
    zeta_q = gibbs_distribution(gibbs.beta_qubit, 2)
    w_cav = extended_gibbs(gibbs.beta_cavity, dims.dim_cavity_init, dims.dim_cavity_full)
    return np.outer(zeta_q, w_cav)


def cavity_heat(fwd, from_atom: bool = False) -> float:
    p = fwd.probs
    if from_atom:
        n_q = np.arange(2)
        change = n_q[None, None, None, :, None] - n_q[:, None, None, None, None]
        return float(-(p * change).sum())
    init = np.arange(fwd.dims.dim_cavity_init)
    fin = np.arange(fwd.dims.dim_cavity_full)
    change = fin[None, None, None, None, :] - init[None, None, :, None, None]
    return float((p * change).sum())


def mean_information(fwd) -> float:
    return shannon_entropy(branch_probability(fwd))


def divergence(p, q, floor):
    if floor is None:
        return relative_entropy(p, q)
    q = np.asarray(q, dtype=float).copy()
    q[(np.asarray(p) > 0.0) & (q <= 0.0)] = floor
    return relative_entropy(p, q)


def sigma1(fwd, from_atom: bool = True) -> float:
    return fwd.gibbs.delta_beta * cavity_heat(fwd, from_atom=from_atom) + mean_information(fwd)


def sigma2(fwd, floor=None) -> float:
    pk = branch_probability(fwd)
    ref = thermal_reference(fwd.gibbs, fwd.dims)
    total = 0.0
    for k in range(2):
        if pk[k] <= 0.0:
            continue
        rho_k = fwd.probs[:, k].sum(axis=(0, 1)) / pk[k]
        total += pk[k] * divergence(rho_k, ref, floor)
    return total


def sigma3(fwd, bwd, floor=None) -> float:
    pk = branch_probability(fwd)
    total = 0.0
    for k in range(2):
        if pk[k] <= 0.0:
            continue
        rho_init = fwd.probs[:, k].sum(axis=(2, 3)) / pk[k]
        back_final = bwd.probs[:, k].sum(axis=(2, 3)) / pk[k]
        total += pk[k] * divergence(rho_init, back_final, floor)
    return total


def sigma4(fwd, bwd, floor=None) -> float:
    return divergence(fwd.probs, bwd.probs, floor)


def sigma5(hist, floor=None) -> float:
    return divergence(hist.p_forward, hist.p_backward, floor)


def sigma6(fwd, floor=None) -> float:
    joint = np.transpose(fwd.probs.sum(axis=(0, 2)), (1, 0, 2))
    rho_qc = joint.sum(axis=1)
    info = (
        shannon_entropy(rho_qc)
        + shannon_entropy(joint.sum(axis=(0, 2)))
        - shannon_entropy(joint)
    )
    ref = thermal_reference(fwd.gibbs, fwd.dims)
    return divergence(rho_qc, ref, floor) + info


def support_mismatch(fwd, bwd) -> tuple[Trajectory, ...]:
    bad = np.argwhere((fwd.probs > 0.0) & (bwd.probs <= 0.0))
    return tuple(Trajectory(*map(int, idx)) for idx in bad)


def _format_trajectory(traj: Trajectory) -> str:
    return (
        f"(n_Q={traj.n_qubit},k={traj.k},n_C={traj.n_cavity},"
        f"m_Q={traj.m_qubit},m_C={traj.m_cavity})"
    )


def evaluate(fwd, bwd, hist=None, floor=None, heat_from_atom: bool = True) -> EpResult:
    values = {
        "sigma1": sigma1(fwd, from_atom=heat_from_atom),
        "sigma2": sigma2(fwd, floor),
        "sigma3": math.nan,
        "sigma4": math.nan,
        "sigma5": math.nan,
        "sigma6": sigma6(fwd, floor),
    }
    flags: list[str] = []
    if bwd is not None:
        if hist is None:
            hist = sigma_histogram(fwd, bwd)
        values["sigma3"] = sigma3(fwd, bwd, floor)
        values["sigma4"] = sigma4(fwd, bwd, floor)
        values["sigma5"] = sigma5(hist, floor)
        mismatches = support_mismatch(fwd, bwd)
        if mismatches:
            sample = ",".join(_format_trajectory(t) for t in mismatches[:3])
            flags.append(f"support:{len(mismatches)} forward trajectories unmatched:{sample}")
    for name, value in values.items():
        if math.isinf(value):
            flags.append(f"{name}:infinite")
    return EpResult(
        dbeta_tilde=fwd.gibbs.dbeta_tilde,
        heat_cavity=cavity_heat(fwd, from_atom=heat_from_atom),
        mean_info=mean_information(fwd),
        flags=tuple(flags),
        **values,
    )


# ---------------------------------------------------------------------------
# runner


def run(kernel, config) -> list[EpResult]:
    """Estimators of a kernel at every point of the configured bias grid."""
    results = []
    for dbeta in config.grid():
        gibbs = GibbsSpec.from_dbeta(config.beta_cavity, float(dbeta))
        fwd, bwd = point_tables(kernel, gibbs)
        hist = None if bwd is None else sigma_histogram(fwd, bwd, tol=config.sigma_tol)
        results.append(
            evaluate(fwd, bwd, hist, floor=config.floor, heat_from_atom=config.heat_from_atom)
        )
    return results
