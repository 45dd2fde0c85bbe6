"""Six estimators of the average entropy production of the demon protocol.

All six agree exactly for the ideal protocol and differ under imperfections;
that spread is the point of computing them side by side:

* ``sigma1`` — bath heat plus average information gain (forward averages).
* ``sigma2`` — branch-resolved divergence of the final state from the thermal
  reference (forward, branched).
* ``sigma3`` — divergence of the branch initial states from the backward
  protocol's final statistics (forward + backward, branched).
* ``sigma4`` — trajectory-resolved divergence between forward and backward
  weights (stochastic).
* ``sigma5`` — the same divergence after binning trajectories by their
  stochastic entropy production (stochastic, what a measured histogram gives).
* ``sigma6`` — divergence of the average final state plus the residual
  system–memory mutual information (forward averages).

Divergent estimators return ``inf``; :func:`evaluate` additionally reports
which trajectories or branches broke the support condition.  The thermal
reference and backward priors share the single-free-energy convention of
:mod:`demon_ep.protocol` (initial-truncation weights, Boltzmann-extended).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .protocol import (
    SigmaHistogram,
    Trajectory,
    TrajectoryTable,
    branch_probability,
    final_state_marginal,
    sigma_histogram,
)
from .statespace import (
    GibbsSpec,
    JointDistribution,
    extended_gibbs,
    gibbs_distribution,
    marginalize,
    mean_occupation,
    mutual_information,
    relative_entropy,
    shannon_entropy,
)

__all__ = [
    "EpResult",
    "cavity_heat",
    "evaluate",
    "feedback_balance_residual",
    "high_bias_asymptote",
    "jarzynski_average",
    "mean_information",
    "sigma1",
    "sigma2",
    "sigma3",
    "sigma4",
    "sigma5",
    "sigma6",
    "support_mismatch",
]


def _thermal_reference(gibbs: GibbsSpec, dims) -> np.ndarray:
    """Reference measure zeta_Q (x) w_C over the final (m_Q, m_C) grid."""
    zeta_q = gibbs_distribution(gibbs.beta_qubit, 2)
    w_cav = extended_gibbs(gibbs.beta_cavity, dims.dim_cavity_init, dims.dim_cavity_full)
    return np.outer(zeta_q, w_cav)


def cavity_heat(fwd: TrajectoryTable, from_atom: bool = False) -> float:
    """Average heat deposited in the cavity, in units of omega.

    Default reads the photon-number change directly; ``from_atom`` infers it
    from the qubit side instead (minus the qubit energy change), which is how
    an experiment without final photon readout measures it.  The two agree
    exactly when the dynamics conserve total quanta.
    """
    p = fwd.probs
    if from_atom:
        n_q = np.arange(2)
        change = n_q[None, None, None, :, None] - n_q[:, None, None, None, None]
        return float(-(p * change).sum())
    init = np.arange(fwd.dims.dim_cavity_init)
    fin = np.arange(fwd.dims.dim_cavity_full)
    change = fin[None, None, None, None, :] - init[None, None, :, None, None]
    return float((p * change).sum())


def mean_information(fwd: TrajectoryTable) -> float:
    """Average information gained by the memory: H[p(k)] in nats."""
    return shannon_entropy(branch_probability(fwd))


def sigma1(fwd: TrajectoryTable, from_atom: bool = True) -> float:
    """Heat-plus-information estimator: delta-beta * Q_C + H[p(k)].

    Uses the atomic-side heat by default (the experimentally accessible
    variant); identical to the cavity-side one for quanta-conserving
    dynamics.
    """
    return fwd.gibbs.delta_beta * cavity_heat(fwd, from_atom=from_atom) + mean_information(fwd)


def sigma2(fwd: TrajectoryTable, floor: float | None = None) -> float:
    """Branch-averaged divergence of the final state from the thermal reference."""
    pk = branch_probability(fwd)
    ref = _thermal_reference(fwd.gibbs, fwd.dims)
    total = 0.0
    for k in range(2):
        if pk[k] <= 0.0:
            continue
        rho_k = fwd.probs[:, k].sum(axis=(0, 1)) / pk[k]
        total += pk[k] * _divergence(rho_k, ref, floor)
    return total


def sigma3(fwd: TrajectoryTable, bwd: TrajectoryTable, floor: float | None = None) -> float:
    """Branch-averaged divergence of the initial state from the reversed run.

    The comparison state is the backward protocol's final (qubit, cavity)
    measure for the branch, kept at its thermal weight (not renormalized):
    forward and backward weights then share one free energy per subsystem and
    the estimator reduces to the others in the ideal protocol.
    """
    pk = branch_probability(fwd)
    total = 0.0
    for k in range(2):
        if pk[k] <= 0.0:
            continue
        rho_init = fwd.probs[:, k].sum(axis=(2, 3)) / pk[k]
        back_final = bwd.probs[:, k].sum(axis=(2, 3)) / pk[k]
        total += pk[k] * _divergence(rho_init, back_final, floor)
    return total


def sigma4(fwd: TrajectoryTable, bwd: TrajectoryTable, floor: float | None = None) -> float:
    """Trajectory-resolved divergence sum p(gamma) ln p(gamma)/p(gamma-tilde)."""
    return _divergence(fwd.probs, bwd.probs, floor)


def sigma5(hist: SigmaHistogram, floor: float | None = None) -> float:
    """Histogram-level divergence sum p(sigma) ln p(sigma)/p_b(sigma).

    Coarse-grains :func:`sigma4` over equal-sigma bins, so it can only be
    smaller; equality holds when sigma separates trajectories with distinct
    weight ratios (as in the ideal protocol).
    """
    return _divergence(hist.p_forward, hist.p_backward, floor)


def sigma6(fwd: TrajectoryTable, floor: float | None = None) -> float:
    """Average-state divergence plus residual system-memory correlations."""
    joint = final_state_marginal(fwd)  # [m_Q, k, m_C]
    rho_qc = joint.sum(axis=1)
    info = (
        shannon_entropy(rho_qc)
        + shannon_entropy(joint.sum(axis=(0, 2)))
        - shannon_entropy(joint)
    )
    ref = _thermal_reference(fwd.gibbs, fwd.dims)
    return _divergence(rho_qc, ref, floor) + info


def _divergence(p: np.ndarray, q: np.ndarray, floor: float | None) -> float:
    if floor is None:
        return relative_entropy(p, q)
    q = np.asarray(q, dtype=float).copy()
    q[(np.asarray(p) > 0.0) & (q <= 0.0)] = floor
    return relative_entropy(p, q)


def support_mismatch(fwd: TrajectoryTable, bwd: TrajectoryTable) -> tuple[Trajectory, ...]:
    """Forward-possible trajectories with zero backward weight, in index order."""
    bad = np.argwhere((fwd.probs > 0.0) & (bwd.probs <= 0.0))
    return tuple(Trajectory(*map(int, idx)) for idx in bad)


def jarzynski_average(hist: SigmaHistogram, direction: str = "reversed") -> float:
    """Exponential fluctuation average over the sigma histogram.

    ``reversed`` (default) evaluates sum_sigma p_b(sigma) e^{+sigma}, which
    equals one whenever the detailed fluctuation relation holds bin by bin.
    ``forward`` evaluates sum_sigma p(sigma) e^{-sigma}; for a feedback
    protocol this is the reversal efficacy — the total backward weight of
    forward-reachable trajectories — and is strictly below one even ideally.
    """
    if direction == "reversed":
        return float(np.dot(hist.p_backward, np.exp(hist.sigma)))
    if direction == "forward":
        return float(np.dot(hist.p_forward, np.exp(-hist.sigma)))
    raise ValueError(f"direction must be 'reversed' or 'forward', got {direction!r}")


def feedback_balance_residual(
    pre_fb: JointDistribution,
    post_fb: JointDistribution,
    gibbs: GibbsSpec,
) -> float:
    """Entropy balance of the feedback gate, zero for ideal readout.

    Evaluates delta-beta * Q_C - [I_post - I_pre] - D(rho_post_QC || reference)
    from the joint states immediately before and after the feedback gate: the
    heat moved by the gate must be paid by consumed correlations plus the
    divergence from equilibrium it leaves behind.  Imperfect readout breaks
    the balance, and the residual measures by how much.
    """
    if pre_fb.dims != post_fb.dims:
        raise ValueError("states live on different spaces")
    dims = pre_fb.dims
    heat = gibbs.delta_beta * (
        mean_occupation(marginalize(post_fb, "cavity"))
        - mean_occupation(marginalize(pre_fb, "cavity"))
    )
    info_change = mutual_information(post_fb, ("qubit", "cavity")) - mutual_information(
        pre_fb, ("qubit", "cavity")
    )
    rho_qc = marginalize(post_fb, ("qubit", "cavity"))
    ref = _thermal_reference(gibbs, dims)
    return heat - info_change - relative_entropy(rho_qc, ref)


def high_bias_asymptote(gibbs: GibbsSpec) -> float:
    """Large-bias slope of the entropy production: delta-beta * omega per swap.

    For positive bias every readout click moves one quantum across the full
    inverse-temperature difference, so sigma approaches beta_C * omega *
    dbeta_tilde; at negative bias the protocol shuts down and the bound is 0.
    """
    return max(0.0, gibbs.beta_cavity * gibbs.dbeta_tilde)


@dataclass(frozen=True)
class EpResult:
    """All estimators at one bias point, plus divergence flags."""

    dbeta_tilde: float
    sigma1: float
    sigma2: float
    sigma3: float
    sigma4: float
    sigma5: float
    sigma6: float
    heat_cavity: float
    mean_info: float
    flags: tuple[str, ...] = ()

    def as_row(self) -> dict[str, float | str]:
        return {
            "dbeta_tilde": self.dbeta_tilde,
            "sigma1": self.sigma1,
            "sigma2": self.sigma2,
            "sigma3": self.sigma3,
            "sigma4": self.sigma4,
            "sigma5": self.sigma5,
            "sigma6": self.sigma6,
            "heat_C": self.heat_cavity,
            "mean_info": self.mean_info,
            "flags": ";".join(self.flags),
        }


def _format_trajectory(traj: Trajectory) -> str:
    return (
        f"(n_Q={traj.n_qubit},k={traj.k},n_C={traj.n_cavity},"
        f"m_Q={traj.m_qubit},m_C={traj.m_cavity})"
    )


def evaluate(
    fwd: TrajectoryTable,
    bwd: TrajectoryTable | None,
    hist: SigmaHistogram | None = None,
    floor: float | None = None,
    heat_from_atom: bool = True,
) -> EpResult:
    """All six estimators from one forward/backward table pair.

    Without a backward table only the forward-protocol estimators (sigma1,
    sigma2, sigma6) exist; sigma3 to sigma5 are NaN.
    """
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
