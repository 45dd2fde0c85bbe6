"""Six estimators of the average entropy production of the demon protocol.

All six agree exactly for the ideal protocol and differ under imperfections;
that spread is the point of computing them side by side.  Each is a choice of
trajectories, reference measure and data processing, declared once in
:data:`ESTIMATORS`; :class:`EpResult`, the CSV columns and every other list
of the estimators derive from that table.

Divergent estimators return ``inf``; :func:`evaluate` additionally reports
which trajectories or branches broke the support condition.  The thermal
reference and backward priors share the single-free-energy convention of
:mod:`demon_ep.protocol` (initial-truncation weights, Boltzmann-extended).
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field, make_dataclass
from typing import Callable

import numpy as np

from .protocol import (
    HistogramRows,
    SigmaHistogram,
    TableRows,
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
    row_groups,
    shannon_entropy_rows,
)

__all__ = [
    "COLUMNS",
    "ESTIMATORS",
    "EpColumns",
    "EpResult",
    "Estimator",
    "EstimatorInputs",
    "FORWARD_COLUMNS",
    "evaluate",
    "evaluate_rows",
    "feedback_balance_residual",
    "high_bias_asymptote",
    "jarzynski_rows",
]


def _thermal_reference(zeta_q: np.ndarray, w_cav: np.ndarray) -> np.ndarray:
    """Reference measure zeta_Q (x) w_C over the final (m_Q, m_C) grid, per row, from
    the Gibbs weights of :attr:`TableRows.zeta_q` and :attr:`TableRows.w_cav`."""
    return zeta_q[:, :, None] * w_cav[..., None, :]


@dataclass(frozen=True, eq=False)
class EstimatorInputs:
    """What the row functions of :data:`ESTIMATORS` read: stacked table rows, their
    sigma histograms (with backward tables) and the options.  The thermal
    reference, final states, heat and information are computed once, on first use."""

    rows: TableRows | None
    hist: HistogramRows | None = None
    floor: float | None = None
    heat_from_atom: bool = True

    @functools.cached_property
    def thermal(self) -> np.ndarray:
        return _thermal_reference(self.rows.zeta_q, self.rows.w_cav)

    @functools.cached_property
    def final_state(self) -> np.ndarray:  # [r, m_Q, k, m_C], read by sigma2 and sigma6
        return final_state_rows(self.rows.forward)

    @functools.cached_property
    def heat(self) -> np.ndarray:
        """Average heat into the cavity in units of omega, from the atom or the photon side."""
        qubit, cavity = quanta_change(self.rows.dims, float)
        if self.heat_from_atom:  # the cavity gains what the atom loses
            return -(self.rows.forward * qubit).sum(axis=(1, 2, 3, 4, 5))
        return (self.rows.forward * cavity).sum(axis=(1, 2, 3, 4, 5))

    @functools.cached_property
    def info(self) -> np.ndarray:  # average information gained by the memory, H[p(k)]
        return shannon_entropy_rows(self.rows.pk)


def _divergence_rows(p: np.ndarray, q: np.ndarray, floor: float | None) -> np.ndarray:
    if floor is not None:
        q = np.where((p > 0.0) & (q <= 0.0), floor, q)
    return relative_entropy_rows(p, q)


def _sigma1_rows(data: EstimatorInputs) -> np.ndarray:
    """Heat plus information: delta-beta * Q_C + H[p(k)].  The atom-side heat (the
    experimentally accessible variant) is the default; it equals the cavity-side
    one for quanta-conserving dynamics."""
    return (data.rows.beta_cavity - data.rows.beta_qubit) * data.heat + data.info


def _branch_divergence(data: EstimatorInputs, weight, reference) -> np.ndarray:
    """sum_k p(k) D(state_k || reference(k, p(k))) over the branches with p(k) > 0,
    in branch order; state_k is ``weight(k)``, branch k's forward weight on the
    final or the initial levels [r, n_Q or m_Q, n_C or m_C], divided by p(k)."""
    rows = data.rows
    pk = rows.pk[:, :, None, None]
    total = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):  # p(k) = 0 rows are dropped
        for k in range(2):
            state = weight(k) / pk[:, k]
            term = rows.pk[:, k] * _divergence_rows(state, reference(k, pk[:, k]), data.floor)
            if not (rows.pk[:, k] > 0.0).all():
                term = np.where(rows.pk[:, k] > 0.0, term, 0.0)
            total = total + term
    return total


def _sigma2_rows(data: EstimatorInputs) -> np.ndarray:
    return _branch_divergence(data, lambda k: data.final_state[:, :, k], lambda k, pk: data.thermal)


def _sigma3_rows(data: EstimatorInputs) -> np.ndarray:
    """The comparison state is the backward protocol's final (qubit, cavity)
    measure for the branch, kept at its thermal weight (not renormalized):
    forward and backward weights then share one free energy per subsystem, and
    the estimator reduces to the others in the ideal protocol."""
    forward, backward = data.rows.forward, data.rows.backward
    return _branch_divergence(data, lambda k: forward[:, :, k].sum(axis=(3, 4)),
                              lambda k, pk: backward[:, :, k].sum(axis=(3, 4)) / pk)


def _sigma4_rows(data: EstimatorInputs) -> np.ndarray:
    """sum over trajectories of p(gamma) ln p(gamma) / p(gamma-tilde)."""
    return _divergence_rows(data.rows.forward_labels, data.rows.backward_labels, data.floor)


def _sigma5_rows(data: EstimatorInputs) -> np.ndarray:
    """sigma4 coarse-grained over equal-sigma bins, so it can only be smaller;
    equality holds when sigma separates trajectories with distinct weight
    ratios (as in the ideal protocol)."""
    return _divergence_rows(data.hist.p_forward, data.hist.p_backward, data.floor)


def _sigma6_rows(data: EstimatorInputs) -> np.ndarray:
    """Average-state divergence plus the residual system-memory correlations."""
    joint = data.final_state
    rho_qc = joint.sum(axis=2)
    info = (
        shannon_entropy_rows(rho_qc)
        + shannon_entropy_rows(joint.sum(axis=(1, 3)))
        - shannon_entropy_rows(joint)
    )
    return _divergence_rows(rho_qc, data.thermal, data.floor) + info


@dataclass(frozen=True)
class Estimator:
    """One estimator: how it groups the forward trajectories, the reference
    measure it compares them with (None, ``"thermal"`` for zeta_Q (x) w_C,
    ``"backward table"`` or ``"backward histogram"``, which need the backward
    protocol) and its row function, its value at every row of its inputs."""

    name: str  # also its CSV column and EpResult field
    trajectories: str
    reference: str | None
    rows: Callable[[EstimatorInputs], np.ndarray]

    @property
    def needs_backward(self) -> bool:
        return (self.reference or "").startswith("backward")


#: the six estimators in order, by name: the one list of them
ESTIMATORS = {estimator.name: estimator for estimator in (
    Estimator("sigma1", "averages: heat and information", None, _sigma1_rows),
    Estimator("sigma2", "per branch: final state", "thermal", _sigma2_rows),
    Estimator("sigma3", "per branch: initial state", "backward table", _sigma3_rows),
    Estimator("sigma4", "per trajectory", "backward table", _sigma4_rows),
    Estimator("sigma5", "binned by stochastic sigma", "backward histogram", _sigma5_rows),
    Estimator("sigma6", "averages: final state and correlations", "thermal", _sigma6_rows),
)}


def _one_row(fwd, bwd=None, hist=None, floor=None, heat_from_atom=True) -> EstimatorInputs:
    """One table pair, or a histogram alone, as the inputs of a one-row block."""
    rows = None if fwd is None else TableRows.of(fwd, bwd)
    hist_rows = None if hist is None else HistogramRows.of(hist)
    return EstimatorInputs(rows, hist_rows, floor, heat_from_atom)


def _mismatch_rows(rows: TableRows) -> np.ndarray:
    return ((rows.forward_labels > 0.0) & (rows.backward_labels <= 0.0)).reshape(rows.forward.shape)


def jarzynski_rows(hists: HistogramRows, direction: str = "reversed") -> np.ndarray:
    """Exponential fluctuation average over each row's sigma histogram.

    ``reversed`` (default) evaluates sum_sigma p_b(sigma) e^{+sigma}, which
    equals one whenever the detailed fluctuation relation holds bin by bin.
    ``forward`` evaluates sum_sigma p(sigma) e^{-sigma}; for a feedback
    protocol this is the reversal efficacy — the total backward weight of
    forward-reachable trajectories — and is strictly below one even ideally.
    Row ``r`` sums its first ``size[r]`` bins.
    """
    if direction == "reversed":
        p, exponent = hists.p_backward, hists.sigma
    elif direction == "forward":
        p, exponent = hists.p_forward, -hists.sigma
    else:
        raise ValueError(f"direction must be 'reversed' or 'forward', got {direction!r}")
    averages = []
    with np.errstate(all="ignore"):
        for p_r, exponent_r, n in zip(p, exponent, hists.size.tolist()):
            p_r, exponent_r = p_r[:n], exponent_r[:n]
            average = np.dot(p_r, np.exp(exponent_r))
            if not math.isfinite(average):
                # e^sigma overflowed where p is tiny: take e^(sigma + ln p) over p > 0
                live = p_r > 0.0
                average = np.exp(exponent_r[live] + np.log(p_r[live])).sum()
            averages.append(average)
    return np.array(averages, dtype=float)


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
    zeta_q = gibbs_distribution(np.array([[gibbs.beta_qubit]]), 2)
    w_cav = extended_gibbs(gibbs.beta_cavity, dims.dim_cavity_init, dims.dim_cavity_full)
    ref = _thermal_reference(zeta_q, w_cav)[0]
    return heat - info_change - relative_entropy(rho_qc, ref)


def high_bias_asymptote(gibbs: GibbsSpec) -> float:
    """Large-bias slope of the entropy production: delta-beta * omega per swap.

    For positive bias every readout click moves one quantum across the full
    inverse-temperature difference, so sigma approaches beta_C * omega *
    dbeta_tilde; at negative bias the protocol shuts down and the bound is 0.
    """
    return max(0.0, gibbs.beta_cavity * gibbs.dbeta_tilde)


#: the numbers of a result row in CSV order: each CSV column and its EpResult field
_NUMBERS = {"dbeta_tilde": "dbeta_tilde", **{name: name for name in ESTIMATORS},
            "heat_C": "heat_cavity", "mean_info": "mean_info"}
_row_numbers = operator.attrgetter(*_NUMBERS.values())
#: the keys of ``EpResult.as_row()`` in CSV order, and the forward-only layout's
COLUMNS = (*_NUMBERS, "flags")
FORWARD_COLUMNS = tuple(
    key for key in COLUMNS if key not in ESTIMATORS or not ESTIMATORS[key].needs_backward
)


def _as_row(self) -> dict[str, float | str]:
    return dict(zip(COLUMNS, (*_row_numbers(self), ";".join(self.flags))))


EpResult = make_dataclass(
    "EpResult",
    [*((name, float) for name in _NUMBERS.values()), ("flags", tuple, field(default=()))],
    namespace={"__doc__": "All estimators at one bias point, plus divergence flags.",
               "__module__": __name__, "as_row": _as_row},
    frozen=True,
)


@dataclass(frozen=True, eq=False)
class EpColumns:
    """Results at many bias points as columns: ``numbers`` has one row per number
    column of :data:`COLUMNS` and one column per point, ``flags`` one tuple per
    point.  ``forward_only`` marks results computed without backward tables,
    whose backward estimators are NaN; the CSV writer picks its layout from it.
    Indexing and iteration give :class:`EpResult` views, ``len`` the number of
    points; a slice gives columns."""

    numbers: np.ndarray
    flags: list[tuple[str, ...]]
    forward_only: bool = False

    @property
    def estimators(self) -> np.ndarray:
        """The rows of the six estimators, in :data:`ESTIMATORS` order."""
        return self.numbers[1:1 + len(ESTIMATORS)]

    def __len__(self) -> int:
        return len(self.flags)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return EpColumns(self.numbers[:, index], self.flags[index], self.forward_only)
        return EpResult(*self.numbers[:, index].tolist(), self.flags[index])

    def __iter__(self):
        return map(EpResult, *self.numbers.tolist(), self.flags)


def _support_flag(bad: np.ndarray) -> str:
    """Flag text of one point's support-mismatch pattern."""
    bad = np.argwhere(bad)
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

    Without a backward table only the estimators that need no backward
    protocol exist; the others are NaN.
    """
    if bwd is not None and hist is None:
        hist = sigma_histogram(fwd, bwd)
    data = _one_row(fwd, bwd, hist, floor, heat_from_atom)
    return evaluate_rows(data.rows, data.hist, floor, heat_from_atom)[0]


def evaluate_rows(
    rows: TableRows,
    hist: HistogramRows | None = None,
    floor: float | None = None,
    heat_from_atom: bool = True,
) -> EpColumns:
    """:func:`evaluate` at every row of a block, as columns in row order.

    ``hist`` holds the rows' sigma histograms and is required when the rows
    carry backward tables.
    """
    data = EstimatorInputs(rows, hist, floor, heat_from_atom)
    backward = rows.backward is not None
    values = np.array([
        estimator.rows(data) if backward or not estimator.needs_backward
        else np.full(len(rows.dbeta), math.nan) for estimator in ESTIMATORS.values()
    ])
    # rows with the same unmatched support and infinite estimators share one flags tuple
    count = len(rows.dbeta)
    bad = _mismatch_rows(rows) if backward else np.zeros((count, 0), bool)
    infinite = np.isinf(values).T
    flags = [()] * count
    for sel, _ in row_groups(np.concatenate([bad.reshape(count, -1), infinite], axis=1)):
        sel = np.arange(count)[sel]
        r = sel[0]
        shared = ((_support_flag(bad[r]),) if bad[r].any() else ()) + tuple(
            f"{name}:infinite" for name, inf in zip(ESTIMATORS, infinite[r]) if inf
        )
        for i in sel.tolist():
            flags[i] = shared
    return EpColumns(np.vstack([rows.dbeta, values, data.heat, data.info]), flags, not backward)


# ---------------------------------------------------------------------------
# Pinned by the benchmark: ``perfbench/`` names these and no command calls them


def sigma1(fwd: TrajectoryTable, from_atom: bool = True) -> float:
    """``evaluate(fwd, None, heat_from_atom=from_atom).sigma1``."""
    return float(ESTIMATORS["sigma1"].rows(_one_row(fwd, heat_from_atom=from_atom))[0])


def sigma2(fwd: TrajectoryTable, floor: float | None = None) -> float:
    """``evaluate(fwd, None, floor=floor).sigma2``."""
    return float(ESTIMATORS["sigma2"].rows(_one_row(fwd, floor=floor))[0])


def sigma3(fwd: TrajectoryTable, bwd: TrajectoryTable, floor: float | None = None) -> float:
    """``evaluate(fwd, bwd, floor=floor).sigma3``."""
    return float(ESTIMATORS["sigma3"].rows(_one_row(fwd, bwd, floor=floor))[0])


def sigma4(fwd: TrajectoryTable, bwd: TrajectoryTable, floor: float | None = None) -> float:
    """``evaluate(fwd, bwd, floor=floor).sigma4``."""
    return float(ESTIMATORS["sigma4"].rows(_one_row(fwd, bwd, floor=floor))[0])


def sigma5(hist: SigmaHistogram, floor: float | None = None) -> float:
    """``evaluate(fwd, bwd, hist, floor).sigma5`` of the tables ``hist`` bins."""
    return float(ESTIMATORS["sigma5"].rows(_one_row(None, hist=hist, floor=floor))[0])


def sigma6(fwd: TrajectoryTable, floor: float | None = None) -> float:
    """``evaluate(fwd, None, floor=floor).sigma6``."""
    return float(ESTIMATORS["sigma6"].rows(_one_row(fwd, floor=floor))[0])


def support_mismatch(
    fwd: TrajectoryTable, bwd: TrajectoryTable
) -> tuple[tuple[int, int, int, int, int], ...]:
    """Forward-possible trajectories with zero backward weight, as
    (n_Q, k, n_C, m_Q, m_C) labels in index order."""
    bad = _mismatch_rows(TableRows.of(fwd, bwd))[0]
    return tuple(map(tuple, np.argwhere(bad).tolist()))
