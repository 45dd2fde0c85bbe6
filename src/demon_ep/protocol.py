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
mode picks the register (:data:`~demon_ep.channels.ENCODINGS`) and, in ideal
mode, the error-free model.
"""

from __future__ import annotations

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
)

__all__ = [
    "SigmaHistogram",
    "Trajectory",
    "TrajectoryTable",
    "backward_table",
    "branch_probability",
    "final_state_marginal",
    "forward_table",
    "oracle_full_state",
    "sigma_grid",
    "sigma_histogram",
]

#: oracle stage -> number of forward channels applied (see :func:`_channels`)
STAGES = {"initial": 0, "pre_feedback": 1, "post_feedback": 2, "final": 4}

_HARD_TOL = 1e-3
_SOFT_TOL = 1e-9


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


def _check_mass(total: float, expected: float, what: str) -> None:
    if not math.isfinite(total):
        raise ValueError(f"{what}: mass {total!r} is not finite")
    err = abs(total - expected)
    if err > _HARD_TOL:
        raise ValueError(f"{what}: mass {total!r} differs from {expected!r}")
    if err > _SOFT_TOL:
        warnings.warn(
            f"{what}: mass off by {err:.2e} (tolerated, likely measured input)",
            stacklevel=3,
        )


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
        if np.any(p < -1e-15):
            raise ValueError("negative trajectory probability")
        if self.direction == "forward":
            _check_mass(float(p.sum()), 1.0, "forward table")
        else:
            _check_mass(
                float(p.sum()) + self.unlabeled_mass,
                self.prior_mass,
                "backward table conservation",
            )


def branch_probability(table: TrajectoryTable) -> np.ndarray:
    """Readout outcome distribution p(k) of a forward table."""
    if table.direction != "forward":
        raise ValueError("branch probabilities are defined by the forward protocol")
    return table.probs.sum(axis=(0, 2, 3, 4))


def sigma_grid(gibbs: GibbsSpec, pk: np.ndarray, dims: SystemDims = DEFAULT_DIMS) -> np.ndarray:
    """Stochastic entropy production of every trajectory, in nats.

    Shaped like TrajectoryTable.probs.  Heat exchanged with each bath is read
    off the two-point energies, and the readout outcome contributes its
    surprisal: sigma = beta_Q (m_Q - n_Q) + beta_C (m_C - n_C) - ln p(k), with
    energies in units of omega; an outcome with p(k) = 0 gives ``inf``.
    """
    n_q = np.arange(2)
    k = np.arange(2)
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


# ---------------------------------------------------------------------------
# Conditional evolution


def _resolve_model(model: ErrorModel | None, mode: str, dims: SystemDims) -> ErrorModel:
    if mode not in ENCODINGS:
        raise ValueError(f"mode must be one of {tuple(ENCODINGS)}, got {mode!r}")
    if mode == "ideal":
        if model is not None and not model.is_ideal:
            raise ValueError("ideal mode does not accept an error model")
        exact = np.eye(dims.dim_cavity_init, dims.dim_cavity_full)
        return replace(ErrorModel.ideal(), cavity_prep=exact)
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


def _weight_forward(cond: np.ndarray, gibbs: GibbsSpec, dims: SystemDims) -> TrajectoryTable:
    p_qubit, p_cavity = _forward_priors(gibbs, dims)
    probs = np.einsum("mkfnc,n,c->nkcmf", cond, p_qubit, p_cavity)
    return TrajectoryTable(probs, "forward", gibbs, dims, conditionals=cond)


def _weight_backward(
    bcond: np.ndarray,
    gibbs: GibbsSpec,
    pk: np.ndarray,
    dims: SystemDims,
    mode: str,
    reset: np.ndarray | None = None,
) -> TrajectoryTable:
    zeta_q = gibbs_distribution(gibbs.beta_qubit, 2)
    w_cav = extended_gibbs(gibbs.beta_cavity, dims.dim_cavity_init, dims.dim_cavity_full)
    prior_qk = np.outer(zeta_q, np.asarray(pk, dtype=float))  # [m_Q, k]
    if (1, 0) not in ENCODINGS[mode]:
        if prior_qk[1, 0] > 0.0:
            warnings.warn(
                "backward branch k=0 cannot be prepared with the qubit excited "
                "(no atomic encoding); its thermal weight is reassigned to the "
                "ground state",
                stacklevel=3,
            )
        prior_qk[0, 0] += prior_qk[1, 0]
        prior_qk[1, 0] = 0.0
    weights = prior_qk[:, :, None] * w_cav[None, None, :]  # [m_Q, k, m_C]
    joint = bcond * weights[None, None, :, :, :]  # [n_Q, n_C, m_Q, k, m_C]
    init = dims.dim_cavity_init
    labeled = np.transpose(joint[:, :init], (0, 3, 1, 2, 4))
    unlabeled = float(joint[:, init:].sum())
    reset_prob = None
    if reset is not None:
        total = float(weights.sum())
        reset_prob = float((reset * weights).sum() / total) if total > 0 else None
    return TrajectoryTable(
        labeled,
        "backward",
        gibbs,
        dims,
        prior_mass=float(weights.sum()),
        unlabeled_mass=unlabeled,
        demon_reset_prob=reset_prob,
        conditionals=bcond,
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
    return _weight_backward(bcond, gibbs, forward_pk, dims, mode, reset=reset)


def tables_from_conditionals(
    fwd_cond, bwd_cond, gibbs: GibbsSpec, dims: SystemDims = DEFAULT_DIMS, mode: str = "physical"
) -> tuple[TrajectoryTable, TrajectoryTable | None]:
    """Tables at one bias point from measured conditional tables.

    Equal to ``runner.point_tables(runner.measured_kernel(...), gibbs)``, which
    reads the tables once for a whole grid.  Unused by the package; still
    listed by perfbench's tracer.
    """
    from .runner import measured_kernel, point_tables  # runner imports this module

    return point_tables(measured_kernel(mode, fwd_cond, bwd_cond, dims), gibbs)


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
    return np.transpose(table.probs.sum(axis=(0, 2)), (1, 0, 2))


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
        if s.size and np.any(np.diff(s) <= self.tolerance):
            raise ValueError("sigma bins must be strictly increasing beyond tolerance")
        if np.any(pf < 0) or np.any(pb < 0):
            raise ValueError("negative histogram weight")
        _check_mass(float(pf.sum()), 1.0, "sigma histogram forward weight")

    def mean_sigma(self) -> float:
        return float(np.dot(self.sigma, self.p_forward))


def sigma_histogram(
    fwd: TrajectoryTable,
    bwd: TrajectoryTable,
    tol: float = 1e-9,
) -> SigmaHistogram:
    """Bin trajectory weights by their stochastic entropy production.

    Trajectories are keyed by sigma; values closer than ``tol`` share a bin.
    Only forward-possible trajectories (p(gamma) > 0) contribute — a backward
    run ending in a label the forward protocol cannot produce is a failed
    reversal with no partner trajectory.
    """
    if fwd.direction != "forward" or bwd.direction != "backward":
        raise ValueError("need one forward and one backward table")
    if fwd.dims != bwd.dims:
        raise ValueError("tables built over different spaces")
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
    return SigmaHistogram(
        np.array(bins), np.array(acc_f), np.array(acc_b), tolerance=tol
    )
