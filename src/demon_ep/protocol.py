"""Forward and backward demon protocols as exact trajectory statistics.

A trajectory is the label tuple gamma = (n_Q, k, n_C, m_Q, m_C): initial
qubit and cavity levels, memory readout outcome k, final qubit and cavity
levels.  The forward protocol draws (n_Q, n_C) thermally, writes the qubit
state into the memory (k), runs the conditional photon exchange, and measures
the final levels.  The backward protocol prepares the *final* configuration
of a branch — atom encoding (m_Q, k), cavity in Fock state m_C drawn from the
thermal weights — and runs the time-reversed gate sequence.

Tables are dense arrays ``probs[n_Q, k, n_C, m_Q, m_C]``.  Forward tables are
normalized.  Backward tables are weighted by the single-free-energy thermal
convention: cavity weights are normalized on the *initial* truncation and
extended to the evolved space by exact Boltzmann factors, so the total
backward mass exceeds one by the weight of the extension level.  Backward
outcomes whose final photon number falls outside the initial truncation carry
no trajectory label and are accumulated in ``unlabeled_mass``; the sum of
labeled and unlabeled mass always equals the prior mass put in.

Both modes run one path: prepare a register level and a Fock state, apply the
gate chain, and add each final level onto the logical pair it encodes.  The
mode picks the register (:data:`~demon_ep.channels.ENCODINGS`); the weighting
reads it back off the conditionals.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .channels import (
    ENCODINGS,
    ErrorModel,
    apply,
    compose,
    detection_channel,
    feedback_channel,
    prepare_cavity,
    prepare_register,
    readout_channel,
    register_channel,
    relaxation_channel,
)
from .statespace import (
    DEFAULT_DIMS,
    GibbsSpec,
    JointDistribution,
    SystemDims,
    extended_gibbs,
    gibbs_distribution,
    row_groups,
)

__all__ = [
    "HistogramRows",
    "SigmaHistogram",
    "TableRows",
    "Trajectory",
    "TrajectoryTable",
    "backward_table",
    "branch_probability",
    "check_rows",
    "final_state_marginal",
    "forward_table",
    "histogram_rows",
    "oracle_full_state",
    "sigma_grid",
    "sigma_histogram",
    "weigh_rows",
]

#: oracle stage -> number of forward channels applied (see :func:`_channels`)
STAGES = {"initial": 0, "pre_feedback": 1, "post_feedback": 2, "final": 4}

_HARD_TOL = 1e-3
_SOFT_TOL = 1e-9
_NEGATIVE_TOL = 1e-15
#: the table axes behind a leading row axis
_TABLE_AXES = (1, 2, 3, 4, 5)


@dataclass(frozen=True)
class Trajectory:
    """Two-point-measurement label (n_Q, k, n_C, m_Q, m_C)."""

    n_qubit: int
    k: int
    n_cavity: int
    m_qubit: int
    m_cavity: int

    def __post_init__(self) -> None:
        for name in ("n_qubit", "k", "m_qubit"):
            if getattr(self, name) not in (0, 1):
                raise ValueError(f"{name} must be 0 or 1")
        if self.n_cavity < 0 or self.m_cavity < 0:
            raise ValueError("photon numbers must be non-negative")

    @property
    def index(self) -> tuple[int, int, int, int, int]:
        return (self.n_qubit, self.k, self.n_cavity, self.m_qubit, self.m_cavity)


# The checks of tables and histograms run on stacked rows, and report each
# failing row as {row: ValueError or UserWarning}; a single table or
# histogram is checked as one row.


def _mass_faults(total: np.ndarray, expected, what: str) -> dict[int, Exception]:
    """A mass beyond the hard tolerance (or not finite) fails; beyond the soft one warns."""
    err = np.abs(total - expected)
    faults: dict[int, Exception] = {}
    if (err <= _SOFT_TOL).all():
        return faults
    expected = np.broadcast_to(expected, total.shape)
    for r in np.flatnonzero(~(err <= _SOFT_TOL)).tolist():
        t, e = float(total[r]), float(err[r])
        if not math.isfinite(t):
            faults[r] = ValueError(f"{what}: mass {t!r} is not finite")
        elif e > _HARD_TOL:
            faults[r] = ValueError(f"{what}: mass {t!r} differs from {float(expected[r])!r}")
        elif e > _SOFT_TOL:  # a nan expected mass makes a nan err, which passes
            faults[r] = UserWarning(
                f"{what}: mass off by {e:.2e} (tolerated, likely measured input)"
            )
    return faults


def _table_faults(
    probs: np.ndarray,
    direction: str,
    prior_mass: np.ndarray | float = 1.0,
    unlabeled: np.ndarray | float = 0.0,
) -> dict[int, Exception]:
    """:class:`TrajectoryTable`'s checks of stacked ``probs`` rows."""
    total = probs.sum(axis=_TABLE_AXES)
    if direction == "forward":
        faults = _mass_faults(total, 1.0, "forward table")
    else:
        faults = _mass_faults(total + unlabeled, prior_mass, "backward table conservation")
    negative = probs < -_NEGATIVE_TOL
    if negative.any():
        for r in np.flatnonzero(negative.any(axis=_TABLE_AXES)).tolist():
            faults[r] = ValueError("negative trajectory probability")
    return faults


def _report(fault: Exception | None, stacklevel: int) -> None:
    """Raise an error, or warn as ``warnings.warn(fault, stacklevel)`` in the caller would."""
    if isinstance(fault, Warning):
        warnings.warn(fault, stacklevel=stacklevel + 1)
    elif fault is not None:
        raise fault


@dataclass(frozen=True, eq=False)
class TrajectoryTable:
    """Joint trajectory probabilities for one direction of the protocol.

    ``probs[n_Q, k, n_C, m_Q, m_C]`` with n_C on the initial truncation and
    m_C on the evolved space.  Forward tables sum to one.  Backward tables
    carry ``prior_mass`` (total weight fed in, > 1 under the extended thermal
    convention) and ``unlabeled_mass`` (outcomes without a trajectory label);
    labeled + unlabeled = prior mass is enforced.  Sub-permille deviations are
    tolerated with a warning so measured tables remain loadable.
    """

    probs: np.ndarray
    direction: str
    gibbs: GibbsSpec
    dims: SystemDims = DEFAULT_DIMS
    prior_mass: float = 1.0
    unlabeled_mass: float = 0.0
    demon_reset_prob: float | None = None
    #: conditional-evolution array the table was weighted from, kept so
    #: serialization can emit exactly what the dynamics produced
    conditionals: np.ndarray | None = None

    def __post_init__(self) -> None:
        p = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "probs", p)
        expected = (
            2,
            2,
            self.dims.dim_cavity_init,
            2,
            self.dims.dim_cavity_full,
        )
        if p.shape != expected:
            raise ValueError(f"probs shape {p.shape}, expected {expected}")
        if self.direction not in ("forward", "backward"):
            raise ValueError(f"direction must be forward/backward, got {self.direction!r}")
        faults = _table_faults(p[None], self.direction, self.prior_mass, self.unlabeled_mass)
        _report(faults.get(0), stacklevel=2)


def branch_probability(table: TrajectoryTable) -> np.ndarray:
    """Readout outcome distribution p(k) of a forward table."""
    if table.direction != "forward":
        raise ValueError("branch probabilities are defined by the forward protocol")
    return _branch_rows(table.probs[None])[0]


def _branch_rows(forward: np.ndarray) -> np.ndarray:
    return forward.sum(axis=(1, 3, 4, 5))


def sigma_grid(gibbs: GibbsSpec, pk: np.ndarray, dims: SystemDims = DEFAULT_DIMS) -> np.ndarray:
    """Stochastic entropy production of every trajectory, in nats.

    Shaped like TrajectoryTable.probs.  Heat exchanged with each bath is read
    off the two-point energies, and the readout outcome contributes its
    surprisal: sigma = beta_Q (m_Q - n_Q) + beta_C (m_C - n_C) - ln p(k), with
    energies in units of omega; an outcome with p(k) = 0 gives ``inf``.
    """
    pk = np.asarray(pk, dtype=float)[None]
    return _sigma_rows(np.array([gibbs.beta_qubit]), gibbs.beta_cavity, pk, dims)[0]


def _sigma_rows(
    beta_qubit: np.ndarray, beta_cavity: float, pk: np.ndarray, dims: SystemDims
) -> np.ndarray:
    qubit, cavity = quanta_change(dims)
    with np.errstate(divide="ignore"):
        log_pk = np.log(pk)
    return (
        beta_qubit[:, None, None, None, None, None] * qubit
        + beta_cavity * cavity
        - log_pk[:, None, :, None, None, None]
    )


@functools.lru_cache(maxsize=16)
def quanta_change(dims: SystemDims) -> tuple[np.ndarray, np.ndarray]:
    """Per-label quanta gained by the qubit (m_Q - n_Q) and the cavity (m_C - n_C).

    Read-only integer arrays broadcasting against ``TrajectoryTable.probs``.
    """
    n_q = np.arange(2)
    n_c = np.arange(dims.dim_cavity_init)
    m_c = np.arange(dims.dim_cavity_full)
    changes = (
        n_q[None, None, None, :, None] - n_q[:, None, None, None, None],
        m_c[None, None, None, None, :] - n_c[None, None, :, None, None],
    )
    for change in changes:
        change.setflags(write=False)
    return changes


# ---------------------------------------------------------------------------
# Conditional evolution


def _resolve_model(model: ErrorModel | None, mode: str, dims: SystemDims) -> ErrorModel:
    if mode not in ENCODINGS:
        raise ValueError(f"mode must be one of {tuple(ENCODINGS)}, got {mode!r}")
    if mode == "ideal":
        if model is None:
            model = ErrorModel.ideal()
        elif not model.is_ideal:
            raise ValueError("ideal mode does not accept an error model")
        # the ideal register prepares exactly the initial photon numbers of dims
        return replace(model, cavity_prep=np.eye(dims.dim_cavity_init, dims.dim_cavity_full))
    model = model if model is not None else ErrorModel()
    prepared, full = model.cavity_prep.shape[1], dims.dim_cavity_full
    if prepared > full:
        raise ValueError(
            f"cavity_prep prepares photon numbers 0..{prepared - 1}, but dims keep only "
            f"0..{full - 1}; physical mode needs dim_cavity_full >= {prepared}"
        )
    return model


def _channels(model: ErrorModel, dims: SystemDims):
    """Readout, feedback, relaxation and detection, in forward order, built lazily."""
    yield readout_channel(model.eps_read, dims)
    yield feedback_channel(model.eps_feed, dims)
    yield relaxation_channel(model, dims)
    yield detection_channel(model.confusion, dims)


def _evolve(model: ErrorModel | None, dims: SystemDims, mode: str, backward: bool):
    """Run the gate chain from every prepared start.

    Forward runs start from the pairs (n_Q, n_D=1) with the cavity in each
    Fock state of the initial truncation; backward runs start from every
    register level with the cavity anywhere in the evolved space.  Returns
    the starting pairs, ``final[i, n, m_Q, m_D, m_C]`` (each final register
    level placed at the pair it encodes) and ``reset[i, n]``, the final
    weight with m_D = 1.
    """
    model = _resolve_model(model, mode, dims)
    encoding = ENCODINGS[mode]
    full = dims.dim_cavity_full
    starts, n_cavity = (encoding, full) if backward else (((0, 1), (1, 1)), dims.dim_cavity_init)
    pulse, swap, relax, detect = _channels(model, dims)
    core = compose(pulse, swap) if backward else compose(swap, pulse)
    chain = register_channel(compose(compose(detect, relax), core), encoding)
    cavities = [prepare_cavity(n, model, dims) for n in range(n_cavity)]
    levels = np.zeros((len(starts), n_cavity, len(encoding) * full))
    for i, pair in enumerate(starts):
        register = prepare_register(pair, model.eps_prep, encoding)
        for n, cavity in enumerate(cavities):
            levels[i, n] = apply(chain, np.outer(register, cavity))
    levels = levels.reshape(len(starts), n_cavity, len(encoding), full)
    final = np.zeros((len(starts), n_cavity, 2, 2, full))
    reset = np.zeros((len(starts), n_cavity))
    for level, (m_q, m_d) in enumerate(encoding):  # one level per pair
        final[:, :, m_q, m_d] = levels[:, :, level]
        if m_d == 1:
            reset += levels[:, :, level].sum(axis=-1)
    return starts, final, reset


def forward_conditionals(
    model: ErrorModel | None = None,
    dims: SystemDims = DEFAULT_DIMS,
    mode: str = "ideal",
) -> np.ndarray:
    """p(m_Q, k, m_C | n_Q, n_C): outcome statistics per initial label.

    Shape (2, 2, dim_cavity_full, 2, dim_cavity_init); summing the first
    three axes gives one for every initial label.  The memory starts at 1.
    """
    _, final, _ = _evolve(model, dims, mode, False)
    return np.ascontiguousarray(np.transpose(final, (2, 3, 4, 0, 1)))


def backward_conditionals(
    model: ErrorModel | None = None,
    dims: SystemDims = DEFAULT_DIMS,
    mode: str = "ideal",
) -> tuple[np.ndarray, np.ndarray]:
    """Backward-run statistics p(n_Q, n_C | m_Q, k, m_C) plus reset diagnostic.

    Returns ``(bcond, reset)``.  ``bcond`` has shape
    (2, dim_cavity_full, 2, 2, dim_cavity_full): final label (n_Q, n_C) —
    with n_C on the *evolved* space, since the reversed run can overflow the
    initial truncation — given the prepared branch configuration
    (m_Q, k, m_C).  The final memory register is traced out of ``bcond``;
    ``reset[m_Q, k, m_C]`` is the probability that it returned to its
    reference value 1 (a reversal-quality diagnostic, never a filter).
    Columns of a pair (m_Q, k) the register cannot hold — (1, 0) in physical
    mode — are identically zero.
    """
    full = dims.dim_cavity_full
    starts, final, runs_reset = _evolve(model, dims, mode, True)
    bcond = np.zeros((2, full, 2, 2, full))
    reset = np.zeros((2, 2, full))
    for i, (m_q, k) in enumerate(starts):
        bcond[:, :, m_q, k, :] = np.transpose(final[i].sum(axis=2), (1, 2, 0))
        reset[m_q, k] = runs_reset[i]
    return bcond, reset


# ---------------------------------------------------------------------------
# Thermal weighting


def _forward_priors(gibbs: GibbsSpec, dims: SystemDims) -> tuple[np.ndarray, np.ndarray]:
    p_qubit = gibbs_distribution(gibbs.beta_qubit, 2)
    p_cavity = gibbs_distribution(gibbs.beta_cavity, dims.dim_cavity_init)
    return p_qubit, p_cavity


def _forward_rows(cond: np.ndarray, p_qubit: np.ndarray, p_cavity: np.ndarray) -> np.ndarray:
    """Forward tables for a stack of qubit priors ``p_qubit[r, n_Q]``."""
    return np.einsum("mkfnc,bn,c->bnkcmf", cond, p_qubit, p_cavity)


def _backward_rows(
    bcond: np.ndarray,
    zeta_q: np.ndarray,
    w_cav: np.ndarray,
    pk: np.ndarray,
    dims: SystemDims,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Labeled backward tables, unlabeled mass and branch priors, per row.

    The priors ``weights[r, m_Q, k, m_C]`` put each row's thermal qubit
    weight ``zeta_q`` on its forward readout distribution ``pk``.
    """
    prior_qk = zeta_q[:, :, None] * pk[:, None, :]  # [r, m_Q, k]
    # no (m_Q=1, k=0) start column (the physical atom; ConditionalTable.from_grid
    # omits it too): that branch's thermal weight goes to (0, 0)
    if not bcond[:, :, 1, 0].any():
        prior_qk[:, 0, 0] += prior_qk[:, 1, 0]
        prior_qk[:, 1, 0] = 0.0
    weights = prior_qk[:, :, :, None] * w_cav  # [r, m_Q, k, m_C]
    joint = bcond * weights[:, None, None]  # [r, n_Q, n_C, m_Q, k, m_C]
    init = dims.dim_cavity_init
    labeled = np.transpose(joint[:, :, :init], (0, 1, 4, 2, 3, 5))
    unlabeled = joint[:, :, init:].sum(axis=_TABLE_AXES)
    return labeled, unlabeled, weights


def _weight_forward(cond: np.ndarray, gibbs: GibbsSpec, dims: SystemDims) -> TrajectoryTable:
    p_qubit, p_cavity = _forward_priors(gibbs, dims)
    probs = _forward_rows(cond, p_qubit[None], p_cavity)[0]
    return TrajectoryTable(probs, "forward", gibbs, dims, conditionals=cond)


def _weight_backward(
    bcond: np.ndarray,
    gibbs: GibbsSpec,
    pk: np.ndarray,
    dims: SystemDims,
    reset: np.ndarray | None = None,
) -> TrajectoryTable:
    zeta_q = gibbs_distribution(gibbs.beta_qubit, 2)[None]
    w_cav = extended_gibbs(gibbs.beta_cavity, dims.dim_cavity_init, dims.dim_cavity_full)
    pk = np.asarray(pk, dtype=float)[None]
    labeled, unlabeled, weights = _backward_rows(bcond, zeta_q, w_cav, pk, dims)
    weights = weights[0]
    total = float(weights.sum())
    reset_prob = None
    if reset is not None:
        reset_prob = float((reset * weights).sum() / total) if total > 0 else None
    return TrajectoryTable(
        labeled[0],
        "backward",
        gibbs,
        dims,
        prior_mass=total,
        unlabeled_mass=float(unlabeled[0]),
        demon_reset_prob=reset_prob,
        conditionals=bcond,
    )


@dataclass(frozen=True, eq=False)
class TableRows:
    """Forward (and backward) tables of several bias points, stacked on axis 0.

    Row ``r`` holds the ``probs`` of the tables at inverse temperatures
    ``beta_qubit[r]`` and ``beta_cavity``.  :func:`weigh_rows` builds a block
    of them from a kernel; :meth:`of` wraps one table pair, which is how the
    single-point functions run the same row-wise code.  ``unlabeled`` and
    ``prior_mass`` are the backward masses :func:`check_rows` checks, kept by
    :func:`weigh_rows` only.
    """

    dims: SystemDims
    beta_cavity: float
    beta_qubit: np.ndarray
    dbeta: np.ndarray
    forward: np.ndarray
    #: readout distribution p(k) of each row
    pk: np.ndarray
    backward: np.ndarray | None = None
    unlabeled: np.ndarray | None = None
    prior_mass: np.ndarray | None = None

    @classmethod
    def of(cls, fwd: TrajectoryTable, bwd: TrajectoryTable | None = None) -> "TableRows":
        gibbs = fwd.gibbs
        forward = fwd.probs[None]
        return cls(
            fwd.dims,
            gibbs.beta_cavity,
            np.array([gibbs.beta_qubit]),
            np.array([gibbs.dbeta_tilde]),
            forward,
            _branch_rows(forward),
            None if bwd is None else bwd.probs[None],
        )


def weigh_rows(
    forward_cond: np.ndarray,
    backward_cond: np.ndarray | None,
    dims: SystemDims,
    beta_cavity: float,
    dbeta: np.ndarray,
) -> TableRows:
    """Tables of one kernel at every bias point of ``dbeta``, stacked.

    Row ``r`` equals :func:`forward_table` and :func:`backward_table` at
    ``GibbsSpec.from_dbeta(beta_cavity, dbeta[r])``, bit for bit; no table
    check runs (see :func:`check_rows`).
    """
    beta_qubit = beta_cavity * (1.0 - dbeta)
    p_qubit = gibbs_distribution(beta_qubit[:, None], 2)
    p_cavity = gibbs_distribution(beta_cavity, dims.dim_cavity_init)
    forward = _forward_rows(forward_cond, p_qubit, p_cavity)
    pk = _branch_rows(forward)
    if backward_cond is None:
        return TableRows(dims, beta_cavity, beta_qubit, dbeta, forward, pk)
    w_cav = extended_gibbs(beta_cavity, dims.dim_cavity_init, dims.dim_cavity_full)
    labeled, unlabeled, weights = _backward_rows(backward_cond, p_qubit, w_cav, pk, dims)
    return TableRows(
        dims, beta_cavity, beta_qubit, dbeta, forward, pk,
        labeled, unlabeled, weights.sum(axis=(1, 2, 3)),
    )


# ---------------------------------------------------------------------------
# Public table builders


def forward_table(
    gibbs: GibbsSpec,
    model: ErrorModel | None = None,
    dims: SystemDims = DEFAULT_DIMS,
    mode: str = "ideal",
    conditionals: np.ndarray | None = None,
) -> TrajectoryTable:
    """Exact forward trajectory statistics p(gamma).

    ``conditionals`` injects a precomputed (or measured) conditional array;
    the dynamics are bias-independent, so a sweep can reuse one such array
    across all grid points.
    """
    cond = conditionals if conditionals is not None else forward_conditionals(model, dims, mode)
    return _weight_forward(cond, gibbs, dims)


def backward_table(
    gibbs: GibbsSpec,
    model: ErrorModel | None = None,
    dims: SystemDims = DEFAULT_DIMS,
    mode: str = "ideal",
    forward_pk: np.ndarray | None = None,
    conditionals: np.ndarray | None = None,
    reset: np.ndarray | None = None,
) -> TrajectoryTable:
    """Exact backward trajectory statistics p(gamma-tilde).

    ``forward_pk`` is the forward readout distribution used to weight the
    branches; by default it is computed from the matching forward table.
    ``conditionals`` injects a precomputed backward conditional array, in
    which case ``forward_pk`` must be given too.
    """
    if conditionals is not None:
        if forward_pk is None:
            raise ValueError("forward_pk is required with precomputed conditionals")
        bcond = conditionals
    else:
        if forward_pk is None:
            forward_pk = branch_probability(forward_table(gibbs, model, dims, mode))
        bcond, reset = backward_conditionals(model, dims, mode)
    return _weight_backward(bcond, gibbs, forward_pk, dims, reset=reset)


def tables_from_conditionals(
    fwd_cond, bwd_cond, gibbs: GibbsSpec, dims: SystemDims = DEFAULT_DIMS
) -> tuple[TrajectoryTable, TrajectoryTable | None]:
    """Tables at one bias point from measured conditional tables.

    Equal to ``runner.point_tables(runner.measured_kernel(...), gibbs)``, which
    reads the tables once for a whole grid.  Unused by the package; still
    listed by perfbench's tracer.
    """
    from .runner import measured_kernel, point_tables  # runner imports this module

    return point_tables(measured_kernel(fwd_cond, bwd_cond, dims), gibbs)


# ---------------------------------------------------------------------------
# Full-state oracle


def oracle_full_state(
    gibbs: GibbsSpec,
    model: ErrorModel | None = None,
    dims: SystemDims = DEFAULT_DIMS,
    mode: str = "ideal",
    stage: str = "final",
) -> JointDistribution:
    """Average joint (qubit, memory, cavity) state of the forward protocol.

    Evolves the thermal initial mixture as one distribution instead of
    trajectory-by-trajectory; marginals of the trajectory table must agree
    with it, which cross-checks the bookkeeping.  ``stage`` taps the state
    before the readout ("initial"), between readout and feedback
    ("pre_feedback"), after feedback ("post_feedback") or after relaxation
    and detection ("final"; identical to post_feedback in ideal mode).
    """
    if stage not in STAGES:
        raise ValueError(f"stage must be one of {tuple(STAGES)}, got {stage!r}")
    model = _resolve_model(model, mode, dims)
    encoding = ENCODINGS[mode]
    full = dims.dim_cavity_full
    p_qubit, p_cavity = _forward_priors(gibbs, dims)
    register = sum(
        p_qubit[n_q] * prepare_register((n_q, 1), model.eps_prep, encoding)
        for n_q in range(2)
    )
    cavity = sum(
        p_cavity[n_c] * prepare_cavity(n_c, model, dims)
        for n_c in range(dims.dim_cavity_init)
    )
    state = np.outer(register, cavity).ravel()
    for channel in itertools.islice(_channels(model, dims), STAGES[stage]):
        state = apply(register_channel(channel, encoding), state)
    joint = np.zeros((2, 2, full))
    for level, (n_q, n_d) in zip(state.reshape(len(encoding), full), encoding):
        joint[n_q, n_d] += level
    return JointDistribution(dims, joint)


def final_state_marginal(table: TrajectoryTable) -> np.ndarray:
    """Final joint state implied by a forward table, as (m_Q, k, m_C) array.

    The memory axis carries the readout outcome, matching the layout of
    :func:`oracle_full_state` at stage "final".
    """
    if table.direction != "forward":
        raise ValueError("final-state marginal is defined for forward tables")
    return final_state_rows(table.probs[None])[0]


def final_state_rows(forward: np.ndarray) -> np.ndarray:
    """:func:`final_state_marginal` of stacked forward tables, as [r, m_Q, k, m_C]."""
    return np.transpose(forward.sum(axis=(1, 3)), (0, 2, 1, 3))


# ---------------------------------------------------------------------------
# Sigma histogram


@dataclass(frozen=True, eq=False)
class SigmaHistogram:
    """Forward/backward weight per stochastic-entropy value.

    Bins are sorted ascending and separated by more than ``tolerance``.
    ``p_forward`` sums to one; ``p_backward`` holds the backward weight of
    the *same* trajectories, so bins of forward-impossible labels never
    appear and backward weight of unpaired reversals is excluded.
    """

    sigma: np.ndarray
    p_forward: np.ndarray
    p_backward: np.ndarray
    tolerance: float = 1e-9

    def __post_init__(self) -> None:
        s = np.asarray(self.sigma, dtype=float)
        pf = np.asarray(self.p_forward, dtype=float)
        pb = np.asarray(self.p_backward, dtype=float)
        for name, arr in (("sigma", s), ("p_forward", pf), ("p_backward", pb)):
            object.__setattr__(self, name, arr)
        if not (s.shape == pf.shape == pb.shape) or s.ndim != 1:
            raise ValueError("sigma, p_forward, p_backward must be equal-length vectors")
        _report(HistogramRows.of(self).faults().get(0), stacklevel=2)

    def mean_sigma(self) -> float:
        return float(np.dot(self.sigma, self.p_forward))


def sigma_histogram(
    fwd: TrajectoryTable,
    bwd: TrajectoryTable,
    tol: float = 1e-9,
) -> SigmaHistogram:
    """Bin trajectory weights by their stochastic entropy production.

    Trajectories are keyed by sigma and sorted; each bin is anchored at its
    smallest value and takes every following value within ``tol`` of that
    anchor.  Only forward-possible trajectories (p(gamma) > 0) contribute — a
    backward run ending in a label the forward protocol cannot produce is a
    failed reversal with no partner trajectory.
    """
    if fwd.direction != "forward" or bwd.direction != "backward":
        raise ValueError("need one forward and one backward table")
    if fwd.dims != bwd.dims:
        raise ValueError("tables built over different spaces")
    return histogram_rows(TableRows.of(fwd, bwd), tol).row(0)


@dataclass(frozen=True, eq=False)
class HistogramRows:
    """Sigma histograms of stacked rows, each left-aligned and zero-padded.

    Row ``r`` has ``size[r]`` bins; :meth:`row` gives it as a
    :class:`SigmaHistogram`, whose checks then run.  :meth:`faults` runs the
    same checks on every row.
    """

    sigma: np.ndarray
    p_forward: np.ndarray
    p_backward: np.ndarray
    size: np.ndarray
    tolerance: float

    @classmethod
    def of(cls, hist: SigmaHistogram) -> "HistogramRows":
        return cls(
            hist.sigma[None],
            hist.p_forward[None],
            hist.p_backward[None],
            np.array([hist.sigma.size]),
            hist.tolerance,
        )

    def row(self, r: int) -> SigmaHistogram:
        n = self.size[r]
        return SigmaHistogram(
            self.sigma[r, :n], self.p_forward[r, :n], self.p_backward[r, :n], self.tolerance
        )

    def faults(self) -> dict[int, Exception]:
        """:class:`SigmaHistogram`'s checks of every row."""
        sizes = set(self.size.tolist())
        total = self.p_forward.sum(axis=1)
        for n in sizes - {self.p_forward.shape[1]}:  # a row's own bins, summed as one vector
            rows = self.size == n
            total[rows] = self.p_forward[rows, :n].sum(axis=1)
        faults = _mass_faults(total, 1.0, "sigma histogram forward weight")
        negative = (self.p_forward < 0) | (self.p_backward < 0)
        if negative.any():
            for r in np.flatnonzero(negative.any(axis=1)).tolist():
                faults[r] = ValueError("negative histogram weight")
        unsorted = np.diff(self.sigma, axis=1) <= self.tolerance
        if unsorted.any():
            unsorted &= np.arange(1, self.sigma.shape[1]) < self.size[:, None]  # padding aside
            for r in np.flatnonzero(unsorted.any(axis=1)).tolist():
                faults[r] = ValueError("sigma bins must be strictly increasing beyond tolerance")
        return faults


def check_rows(rows: TableRows, hist: HistogramRows | None = None) -> None:
    """Run the checks of each row's tables and histogram, as building them would.

    Row after row, the forward table, the backward table and then the sigma
    histogram (required with backward tables) are checked: each warning is
    given in that order, and the first failure raises.
    """
    checks = [_table_faults(rows.forward, "forward")]
    if rows.backward is not None:
        checks.append(_table_faults(rows.backward, "backward", rows.prior_mass, rows.unlabeled))
        checks.append(hist.faults())
    for r in sorted(set().union(*checks)):
        for faults in checks:
            _report(faults.get(r), stacklevel=2)


def histogram_rows(rows: TableRows, tol: float = 1e-9) -> HistogramRows:
    """:func:`sigma_histogram` of every row of a block, bit for bit.

    Rows sharing a forward support are sorted together.  A bin opens where
    the gap to the previous value exceeds ``tol``, and again wherever a value
    lies beyond ``tol`` of its bin's anchor.  Each bin sums its members left
    to right in sorted order (a running sum, never pairwise).
    """
    count = len(rows.dbeta)
    fwd = rows.forward.reshape(count, -1)
    # [r, label, (sigma, forward weight, backward weight)]
    labels = np.stack(
        (_sigma_rows(rows.beta_qubit, rows.beta_cavity, rows.pk, rows.dims).reshape(count, -1),
         fwd, rows.backward.reshape(count, -1)),
        axis=-1,
    )
    parts = []
    for sel, cols in row_groups(fwd > 0.0):
        lines = np.arange(len(labels[sel]))[:, None]
        if not cols.size:  # nothing is forward-possible: a table check fails these rows
            parts.append((sel, np.zeros((3, len(lines), 0)), 0))
            continue
        cols = cols[np.argsort(labels[sel][:, cols, 0], axis=1, kind="stable")]
        sorted_labels = labels[sel][lines, cols]
        s = sorted_labels[..., 0]
        start, anchor = _bins(s, tol)
        depth = np.arange(s.shape[1]) - anchor  # position within the bin
        bin_of = np.cumsum(start, axis=1) - 1
        members = np.zeros((int(depth.max()) + 1, len(s), int(bin_of.max()) + 1, 3))
        members[depth, lines, bin_of] = sorted_labels
        anchors = members[0, :, :, 0].copy()
        # a running sum along depth adds each bin's weights left to right, never
        # pairwise; a bin's total sits at the depth of its last member
        members = np.cumsum(members, axis=0)
        ends = np.ones_like(start)
        ends[:, :-1] = start[:, 1:]
        r, c = np.nonzero(ends)
        bins = np.zeros((3, *anchors.shape))  # anchor sigma, forward, backward
        bins[0] = anchors
        bins[1:, r, bin_of[r, c]] = members[depth[r, c], r, bin_of[r, c], 1:].T
        parts.append((sel, bins, bin_of[:, -1] + 1))
    width = max(bins.shape[2] for _, bins, _ in parts)
    sigma, p_f, p_b = out = np.zeros((3, count, width))
    size = np.empty(count, dtype=int)
    for sel, bins, sizes in parts:
        out[:, sel, :bins.shape[2]] = bins
        size[sel] = sizes
    return HistogramRows(sigma, p_f, p_b, size, tol)


def _bins(s: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Which sorted values open a bin, and each value's anchor position, by row."""
    positions = np.arange(s.shape[1])
    lines = np.arange(len(s))[:, None]
    start = np.ones(s.shape, dtype=bool)
    start[:, 1:] = ~(s[:, 1:] - s[:, :-1] <= tol)  # a gap beyond tol always opens a bin
    while True:
        anchor = np.maximum.accumulate(np.where(start, positions, 0), axis=1)
        beyond = ~(s - s[lines, anchor] <= tol) & ~start
        if not beyond.any():
            return start, anchor
        # a run of small gaps reached past tol from its anchor: its first
        # value beyond tol opens the next bin (the rest are checked again)
        seen = np.cumsum(beyond, axis=1)
        start |= beyond & (seen - seen[lines, anchor] == 1)
