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

import functools
import math
from dataclasses import dataclass

import numpy as np

from .protocol import (
    HistogramRows,
    SigmaHistogram,
    TableRows,
    Trajectory,
    TrajectoryTable,
    final_state_rows,
    quanta_change,
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
    relative_entropy_rows,
    shannon_entropy_rows,
)

__all__ = [
    "EpResult",
    "cavity_heat",
    "evaluate",
    "evaluate_rows",
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


def _thermal_reference(
    beta_qubit: np.ndarray, beta_cavity: float | np.ndarray, dims
) -> np.ndarray:
    """Reference measure zeta_Q (x) w_C over the final (m_Q, m_C) grid, per row.

    ``beta_cavity`` is shared by every row or given per row.
    """
    zeta_q = gibbs_distribution(beta_qubit[:, None], 2)
    w_cav = extended_gibbs(
        np.asarray(beta_cavity)[..., None], dims.dim_cavity_init, dims.dim_cavity_full
    )
    return zeta_q[:, :, None] * w_cav[..., None, :]


# Each estimator is a function of stacked table rows (:class:`TableRows`);
# the single-table functions below are one-row calls of the same code.


def _heat_rows(rows: TableRows, from_atom: bool) -> np.ndarray:
    qubit, cavity = quanta_change(rows.dims)
    if from_atom:  # the cavity gains what the atom loses
        return -(rows.forward * qubit).sum(axis=(1, 2, 3, 4, 5))
    return (rows.forward * cavity).sum(axis=(1, 2, 3, 4, 5))


def _sigma1_rows(rows: TableRows, heat: np.ndarray, info: np.ndarray) -> np.ndarray:
    return (rows.beta_cavity - rows.beta_qubit) * heat + info


def _branch_average(pk: np.ndarray, divergence) -> np.ndarray:
    """sum_k p(k) divergence(k) over the branches with p(k) > 0, in branch order."""
    total = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):  # p(k) = 0 rows are dropped
        for k in range(2):
            term = pk[:, k] * divergence(k)
            if not (pk[:, k] > 0.0).all():
                term = np.where(pk[:, k] > 0.0, term, 0.0)
            total = total + term
    return total


def _sigma2_rows(
    rows: TableRows, floor: float | None, ref: np.ndarray | None = None
) -> np.ndarray:
    if ref is None:
        ref = _thermal_reference(rows.beta_qubit, rows.beta_cavity, rows.dims)
    pk = rows.pk[:, :, None, None]
    return _branch_average(rows.pk, lambda k: _divergence_rows(
        rows.forward[:, :, k].sum(axis=(1, 2)) / pk[:, k], ref, floor
    ))


def _sigma3_rows(rows: TableRows, floor: float | None) -> np.ndarray:
    pk = rows.pk[:, :, None, None]
    return _branch_average(rows.pk, lambda k: _divergence_rows(
        rows.forward[:, :, k].sum(axis=(3, 4)) / pk[:, k],
        rows.backward[:, :, k].sum(axis=(3, 4)) / pk[:, k],
        floor,
    ))


def _sigma6_rows(
    rows: TableRows, floor: float | None, ref: np.ndarray | None = None
) -> np.ndarray:
    if ref is None:
        ref = _thermal_reference(rows.beta_qubit, rows.beta_cavity, rows.dims)
    joint = final_state_rows(rows.forward)  # [r, m_Q, k, m_C]
    rho_qc = joint.sum(axis=2)
    info = (
        shannon_entropy_rows(rho_qc)
        + shannon_entropy_rows(joint.sum(axis=(1, 3)))
        - shannon_entropy_rows(joint)
    )
    return _divergence_rows(rho_qc, ref, floor) + info


def _divergence_rows(p: np.ndarray, q: np.ndarray, floor: float | None) -> np.ndarray:
    if floor is not None:
        q = np.where((p > 0.0) & (q <= 0.0), floor, q)
    return relative_entropy_rows(p, q)


def _mismatch_rows(rows: TableRows) -> np.ndarray:
    return (rows.forward > 0.0) & (rows.backward <= 0.0)


def cavity_heat(fwd: TrajectoryTable, from_atom: bool = False) -> float:
    """Average heat deposited in the cavity, in units of omega.

    Default reads the photon-number change directly; ``from_atom`` infers it
    from the qubit side instead (minus the qubit energy change), which is how
    an experiment without final photon readout measures it.  The two agree
    exactly when the dynamics conserve total quanta.  Note the defaults
    differ: :func:`sigma1`, :func:`evaluate` and the CSV's ``heat_C`` take the
    atom side unless told otherwise.
    """
    return float(_heat_rows(TableRows.of(fwd), from_atom)[0])


def mean_information(fwd: TrajectoryTable) -> float:
    """Average information gained by the memory: H[p(k)] in nats."""
    return float(shannon_entropy_rows(TableRows.of(fwd).pk)[0])


def sigma1(fwd: TrajectoryTable, from_atom: bool = True) -> float:
    """Heat-plus-information estimator: delta-beta * Q_C + H[p(k)].

    Uses the atomic-side heat by default (the experimentally accessible
    variant); identical to the cavity-side one for quanta-conserving
    dynamics.
    """
    rows = TableRows.of(fwd)
    info = shannon_entropy_rows(rows.pk)
    return float(_sigma1_rows(rows, _heat_rows(rows, from_atom), info)[0])


def sigma2(fwd: TrajectoryTable, floor: float | None = None) -> float:
    """Branch-averaged divergence of the final state from the thermal reference."""
    return float(_sigma2_rows(TableRows.of(fwd), floor)[0])


def sigma3(fwd: TrajectoryTable, bwd: TrajectoryTable, floor: float | None = None) -> float:
    """Branch-averaged divergence of the initial state from the reversed run.

    The comparison state is the backward protocol's final (qubit, cavity)
    measure for the branch, kept at its thermal weight (not renormalized):
    forward and backward weights then share one free energy per subsystem and
    the estimator reduces to the others in the ideal protocol.
    """
    return float(_sigma3_rows(TableRows.of(fwd, bwd), floor)[0])


def sigma4(fwd: TrajectoryTable, bwd: TrajectoryTable, floor: float | None = None) -> float:
    """Trajectory-resolved divergence sum p(gamma) ln p(gamma)/p(gamma-tilde)."""
    return float(_divergence_rows(fwd.probs[None], bwd.probs[None], floor)[0])


def sigma5(hist: SigmaHistogram, floor: float | None = None) -> float:
    """Histogram-level divergence sum p(sigma) ln p(sigma)/p_b(sigma).

    Coarse-grains :func:`sigma4` over equal-sigma bins, so it can only be
    smaller; equality holds when sigma separates trajectories with distinct
    weight ratios (as in the ideal protocol).
    """
    return float(_divergence_rows(hist.p_forward[None], hist.p_backward[None], floor)[0])


def sigma6(fwd: TrajectoryTable, floor: float | None = None) -> float:
    """Average-state divergence plus residual system-memory correlations."""
    return float(_sigma6_rows(TableRows.of(fwd), floor)[0])


def support_mismatch(fwd: TrajectoryTable, bwd: TrajectoryTable) -> tuple[Trajectory, ...]:
    """Forward-possible trajectories with zero backward weight, in index order."""
    bad = _mismatch_rows(TableRows.of(fwd, bwd))[0]
    return tuple(Trajectory(*map(int, idx)) for idx in np.argwhere(bad))


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
    ref = _thermal_reference(np.array([gibbs.beta_qubit]), gibbs.beta_cavity, dims)[0]
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


@functools.lru_cache(maxsize=256)
def _support_flag(pattern: bytes, shape: tuple[int, ...]) -> str:
    """Flag text of one support-mismatch pattern (``bad.tobytes()``)."""
    bad = np.argwhere(np.frombuffer(pattern, dtype=bool).reshape(shape))
    sample = ",".join(
        f"(n_Q={n_q},k={k},n_C={n_c},m_Q={m_q},m_C={m_c})"
        for n_q, k, n_c, m_q, m_c in bad[:3].tolist()
    )
    return f"support:{len(bad)} forward trajectories unmatched:{sample}"


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
    if bwd is not None and hist is None:
        hist = sigma_histogram(fwd, bwd)
    rows = TableRows.of(fwd, bwd)
    hist_rows = None if hist is None else HistogramRows.of(hist)
    return evaluate_rows(rows, hist_rows, floor, heat_from_atom)[0]


def evaluate_rows(
    rows: TableRows,
    hist: HistogramRows | None = None,
    floor: float | None = None,
    heat_from_atom: bool = True,
) -> list[EpResult]:
    """:func:`evaluate` at every row of a block, in row order.

    ``hist`` holds the rows' sigma histograms and is required when the rows
    carry backward tables.
    """
    count = len(rows.dbeta)
    heat = _heat_rows(rows, heat_from_atom)
    info = shannon_entropy_rows(rows.pk)
    ref = _thermal_reference(rows.beta_qubit, rows.beta_cavity, rows.dims)
    nan = np.full(count, math.nan)
    values = {
        "sigma1": _sigma1_rows(rows, heat, info),
        "sigma2": _sigma2_rows(rows, floor, ref),
        "sigma3": nan,
        "sigma4": nan,
        "sigma5": nan,
        "sigma6": _sigma6_rows(rows, floor, ref),
    }
    support = [None] * count
    if rows.backward is not None:
        values["sigma3"] = _sigma3_rows(rows, floor)
        values["sigma4"] = _divergence_rows(rows.forward, rows.backward, floor)
        values["sigma5"] = _divergence_rows(hist.p_forward, hist.p_backward, floor)
        bad = _mismatch_rows(rows)
        for r in np.flatnonzero(bad.reshape(count, -1).any(axis=1)).tolist():
            support[r] = _support_flag(bad[r].tobytes(), bad.shape[1:])
    infinite = np.isinf(np.array(list(values.values()))).T.tolist()
    columns = (rows.dbeta, *values.values(), heat, info)
    results = []
    for r, (dbeta, *numbers) in enumerate(zip(*(c.tolist() for c in columns))):
        flags = () if support[r] is None else (support[r],)
        if any(infinite[r]):
            flags += tuple(
                f"{name}:infinite" for name, inf in zip(values, infinite[r]) if inf
            )
        results.append(EpResult(dbeta, *numbers, flags))
    return results
