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
gate chain, and place each final level at the logical pair it encodes.  The
kernel's runs and the oracle's taps share that one placement, and the kernel's
two conditional arrays are cut from the stacked final states.  The mode picks
the register (:data:`~demon_ep.channels.ENCODINGS`); the weighting
reads it back off the conditionals.  A model's chain (:class:`GateChain`:
readout, feedback, relaxation and detection on the register) is built once
per kernel; both directions of the kernel and every oracle pass over it take
their channels from that one chain, and each applies a channel to all its
starts or bias points in one stacked product.

One thermal weighting serves every bias point: :func:`weigh_rows` weighs a
block of them as stacked rows, and the tables of a single point
(:func:`point_tables`) are a block's row 0 (:meth:`TableRows.tables`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .channels import (
    ENCODINGS,
    ErrorModel,
    StochasticChannel,
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
    SIGMA_TOL,
    GibbsSpec,
    JointDistribution,
    SystemDims,
    _mass_faults,
    _report,
    extended_gibbs,
    gibbs_distribution,
    row_groups,
)

if TYPE_CHECKING:
    from .dataio import ConditionalTable

__all__ = [
    "GateChain",
    "HistogramRows",
    "ProtocolKernel",
    "SigmaHistogram",
    "TableRows",
    "TrajectoryTable",
    "backward_table",
    "branch_probability",
    "check_rows",
    "forward_table",
    "histogram_rows",
    "measured_kernel",
    "oracle_rows",
    "oracle_states",
    "point_tables",
    "sigma_grid",
    "sigma_histogram",
    "simulated_kernel",
    "weigh_rows",
]

#: oracle stage -> number of forward gates applied (see :class:`GateChain`)
STAGES = {"initial": 0, "pre_feedback": 1, "post_feedback": 2, "final": 4}

_NEGATIVE_TOL = 1e-15
#: the table axes behind a leading row axis
_TABLE_AXES = (1, 2, 3, 4, 5)


# The checks of tables run on stacked rows, and report each failing row as
# {row: ValueError or UserWarning}; a single table is checked as one row.


def _table_faults(
    probs: np.ndarray,
    labels: np.ndarray,
    direction: str,
    prior_mass: np.ndarray | float = 1.0,
    unlabeled: np.ndarray | float = 0.0,
) -> dict[int, Exception]:
    """:class:`TrajectoryTable`'s checks of stacked ``probs`` rows, also given as ``labels``."""
    total = probs.sum(axis=_TABLE_AXES)
    if direction == "forward":
        faults = _mass_faults(total, 1.0, "forward table")
    else:
        faults = _mass_faults(total + unlabeled, prior_mass, "backward table conservation")
    negative = labels < -_NEGATIVE_TOL
    if negative.any():
        for r in np.flatnonzero(negative.any(axis=1)).tolist():
            faults[r] = ValueError("negative trajectory probability")
    return faults


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
        expected = _label_shape(self.dims)
        if p.shape != expected:
            raise ValueError(f"probs shape {p.shape}, expected {expected}")
        if self.direction not in ("forward", "backward"):
            raise ValueError(f"direction must be forward/backward, got {self.direction!r}")
        faults = _table_faults(
            p[None], p.reshape(1, -1), self.direction, self.prior_mass, self.unlabeled_mass
        )
        _report(faults.get(0))


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
    sigma = _class_sigma_rows(np.array([gibbs.beta_qubit]), gibbs.beta_cavity, pk, dims)[0]
    return sigma[label_classes(dims)[0]].reshape(_label_shape(dims))


def _class_sigma_rows(
    beta_qubit: np.ndarray, beta_cavity: float | np.ndarray, pk: np.ndarray, dims: SystemDims
) -> np.ndarray:
    """sigma of each (Delta q, Delta c, k) class of :func:`label_classes`, per row."""
    _, qubit, cavity, k = label_classes(dims)
    with np.errstate(divide="ignore"):
        log_pk = np.log(pk)
    return (
        beta_qubit[:, None] * qubit
        + np.reshape(beta_cavity, (-1, 1)) * cavity
        - log_pk[:, k]
    )


def _label_shape(dims: SystemDims) -> tuple[int, ...]:
    return (2, 2, dims.dim_cavity_init, 2, dims.dim_cavity_full)


@functools.lru_cache(maxsize=16)
def quanta_change(dims: SystemDims, dtype=int) -> tuple[np.ndarray, np.ndarray]:
    """Per-label quanta gained by the qubit (m_Q - n_Q) and the cavity (m_C - n_C).

    Read-only arrays of ``dtype`` broadcasting against ``TrajectoryTable.probs``;
    float ones multiply float tables without a cast per element.
    """
    n_q = np.arange(2, dtype=dtype)
    n_c = np.arange(dims.dim_cavity_init, dtype=dtype)
    m_c = np.arange(dims.dim_cavity_full, dtype=dtype)
    changes = (
        n_q[None, None, None, :, None] - n_q[:, None, None, None, None],
        m_c[None, None, None, None, :] - n_c[None, None, :, None, None],
    )
    for change in changes:
        change.setflags(write=False)
    return changes


@functools.lru_cache(maxsize=16)
def label_classes(dims: SystemDims) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The (Delta q, Delta c, k) class of every label, and each class's three values.

    Returns ``(class_of, qubit, cavity, k)``: ``class_of[label]`` over the
    flattened ``TrajectoryTable.probs`` and, per class, its quanta changes
    and readout outcome.  sigma is a function of the class alone, so every
    label of a class has bit-identical sigma.  Read-only integer arrays.
    """
    qubit, cavity = quanta_change(dims)
    k = np.arange(2)[None, :, None, None, None]
    keys = np.stack([a.ravel() for a in np.broadcast_arrays(qubit, cavity, k)], axis=1)
    classes, class_of = np.unique(keys, axis=0, return_inverse=True)
    arrays = (class_of.ravel(), *np.ascontiguousarray(classes.T))
    for array in arrays:
        array.setflags(write=False)
    return arrays


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


@dataclass(frozen=True, eq=False)
class GateChain:
    """A model's gates on the register of one mode, in forward order.

    ``gates`` holds the readout, feedback, relaxation and detection channels,
    each lifted to the register of ``encoding``; ``tail`` is detection after
    relaxation, the steps that close both directions; ``model`` is the error
    model as the mode runs it.  :func:`_gate_chain` builds it once, and every
    conditional run and oracle pass of the model takes its channels from it.
    """

    model: ErrorModel
    dims: SystemDims
    encoding: tuple
    gates: tuple[StochasticChannel, ...]
    tail: StochasticChannel


def _gate_chain(model: ErrorModel | None, dims: SystemDims, mode: str) -> GateChain:
    model = _resolve_model(model, mode, dims)
    encoding = ENCODINGS[mode]
    gates = tuple(
        register_channel(gate, encoding)
        for gate in (
            readout_channel(model.eps_read, dims),
            feedback_channel(model.eps_feed, dims),
            relaxation_channel(model, dims),
            detection_channel(model.confusion, dims),
        )
    )
    return GateChain(model, dims, encoding, gates, compose(gates[3], gates[2]))


def _place(levels: np.ndarray, encoding: tuple) -> np.ndarray:
    """``levels[..., level, m_C]`` placed as ``[..., n_Q, n_D, m_C]``: each level at
    the pair ``encoding`` gives it; a pair no level holds reads zero."""
    placed = np.zeros((*levels.shape[:-2], 2, 2, levels.shape[-1]))
    for level, (n_q, n_d) in enumerate(encoding):  # one level per pair
        placed[..., n_q, n_d, :] = levels[..., level, :]
    return placed


def _evolve(chain: GateChain, backward: bool) -> np.ndarray:
    """Run the gate chain from every prepared start, all starts in one product.

    Forward runs start from the pairs (n_Q, n_D=1) with the cavity in each
    Fock state of the initial truncation; backward runs start from every
    register level, in ``chain.encoding``'s order, with the cavity anywhere in
    the evolved space.  The prepared states are stacked as
    ``(starts, n_C, levels, 1)`` and one ``np.matmul`` with the composed chain
    does a matrix-vector product per start: the arithmetic of applying the
    chain to each start alone, so the bits are the same.  Returns the final
    states ``final[i, n, m_Q, m_D, m_C]``, each final register level placed at
    the pair it encodes (:func:`_place`).
    """
    model, dims, encoding = chain.model, chain.dims, chain.encoding
    full = dims.dim_cavity_full
    starts, n_cavity = (encoding, full) if backward else (((0, 1), (1, 1)), dims.dim_cavity_init)
    pulse, swap = chain.gates[:2]
    core = compose(pulse, swap) if backward else compose(swap, pulse)
    run = compose(chain.tail, core)
    registers = np.array([prepare_register(pair, model.eps_prep, encoding) for pair in starts])
    cavities = np.array([prepare_cavity(n, model, dims) for n in range(n_cavity)])
    # each start's np.outer(register, cavity), as a column
    states = registers[:, None, :, None] * cavities[None, :, None, :]
    levels = np.matmul(run.matrix, states.reshape(len(starts), n_cavity, -1, 1))
    return _place(levels.reshape(len(starts), n_cavity, len(encoding), full), encoding)


# ---------------------------------------------------------------------------
# Thermal weighting


def _forward_rows(cond: np.ndarray, p_qubit: np.ndarray, p_cavity: np.ndarray) -> np.ndarray:
    """Forward tables for a stack of qubit priors ``p_qubit[r, n_Q]``.

    ``cond`` and ``p_cavity`` are shared by every row, or stacked with one
    per row (``cond[r]``, ``p_cavity[r, n_C]``).
    """
    cond_row = "b" if cond.ndim == 6 else ""
    cavity_row = "b" if p_cavity.ndim == 2 else ""
    # The output keeps the memory order of ``cond``, and that order fixes the
    # summation order of every later reduction.  With ``cond`` stored in
    # ConditionalTable's [n_Q, n_C, m_Q, k, m_C] order the values are equal but
    # the strides are not, p(k) sums in another order, and backward results
    # move by up to 1.7e-16: every frozen CSV digest breaks.
    return np.einsum(f"{cond_row}mkfnc,bn,{cavity_row}c->bnkcmf", cond, p_qubit, p_cavity)


def gibbs_weights(beta_qubit: np.ndarray, beta_cavity: float | np.ndarray,
                  dims: SystemDims) -> tuple[np.ndarray, np.ndarray]:
    """Qubit Gibbs weights ``zeta_q[r, n_Q]`` at each ``beta_qubit[r]`` and the
    :func:`extended_gibbs` cavity weights ``w_cav`` ([m_C] shared, or [r, m_C]):
    a block's priors, the first ``dim_cavity_init`` cavity weights the forward one
    (normalized on those levels), and the factors of the thermal reference."""
    zeta_q = gibbs_distribution(beta_qubit[:, None], 2)
    beta_column = np.asarray(beta_cavity)[..., None]  # (1,) when shared, else (R, 1)
    return zeta_q, extended_gibbs(beta_column, dims.dim_cavity_init, dims.dim_cavity_full)


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
    weights = prior_qk[:, :, :, None] * w_cav[..., None, None, :]  # [r, m_Q, k, m_C]
    # the joint weights [r, n_Q, n_C, m_Q, k, m_C]: the labeled ones go straight
    # into C-contiguous tables [r, n_Q, k, n_C, m_Q, m_C], the others are summed
    init = dims.dim_cavity_init
    labeled = np.empty((len(weights), 2, 2, init, 2, dims.dim_cavity_full))
    np.multiply(bcond[:, :init], weights[:, None, None], out=labeled.transpose(0, 1, 3, 4, 2, 5))
    unlabeled = (bcond[:, init:] * weights[:, None, None]).sum(axis=_TABLE_AXES)
    return labeled, unlabeled, weights


@dataclass(frozen=True, eq=False)
class TableRows:
    """Forward (and backward) tables of several bias points, stacked on axis 0.

    Row ``r`` holds the ``probs`` of the tables at inverse temperatures
    ``beta_qubit[r]`` and ``beta_cavity``, a float shared by every row or an
    array with one value per row.  :func:`weigh_rows` builds a block of them
    from a kernel, and :meth:`tables` gives one row's table pair, checked
    again; :meth:`of` wraps one table pair, which is how the single-point
    functions run the same row-wise code.  ``unlabeled`` (the backward mass
    without a label), ``weights`` (the backward priors ``[r, m_Q, k, m_C]``),
    ``kernel`` and the row numbers defined on them here are kept by
    :func:`weigh_rows` only.
    """

    dims: SystemDims
    beta_cavity: float | np.ndarray
    beta_qubit: np.ndarray
    dbeta: np.ndarray
    forward: np.ndarray
    #: readout distribution p(k) of each row
    pk: np.ndarray
    #: each row's :func:`gibbs_weights`: priors and thermal reference
    zeta_q: np.ndarray
    w_cav: np.ndarray
    backward: np.ndarray | None = None
    unlabeled: np.ndarray | None = None
    weights: np.ndarray | None = None
    kernel: ProtocolKernel | None = None

    @classmethod
    def of(cls, fwd: TrajectoryTable, bwd: TrajectoryTable | None = None) -> "TableRows":
        """One forward table, or a forward/backward pair of one bias point, as one row."""
        gibbs = fwd.gibbs
        if bwd is None:
            if fwd.direction != "forward":
                raise ValueError(f"need a forward table, got a {fwd.direction} one")
        else:
            if fwd.direction != "forward" or bwd.direction != "backward":
                raise ValueError("need one forward and one backward table")
            if fwd.dims != bwd.dims:
                raise ValueError("tables built over different spaces")
            if gibbs != bwd.gibbs:
                raise ValueError(
                    f"tables weighted at different bias points: forward dbeta_tilde "
                    f"{gibbs.dbeta_tilde!r}, backward dbeta_tilde {bwd.gibbs.dbeta_tilde!r}"
                )
        forward, beta_qubit = fwd.probs[None], np.array([gibbs.beta_qubit])
        return cls(
            fwd.dims, gibbs.beta_cavity, beta_qubit, np.array([gibbs.dbeta_tilde]), forward,
            _branch_rows(forward), *gibbs_weights(beta_qubit, gibbs.beta_cavity, fwd.dims),
            None if bwd is None else bwd.probs[None],
        )

    def gibbs(self, r: int) -> GibbsSpec:
        """The bias point of row ``r``."""
        beta_cavity = np.broadcast_to(self.beta_cavity, self.dbeta.shape)[r]
        return GibbsSpec(float(self.beta_qubit[r]), float(beta_cavity), float(self.dbeta[r]))

    @functools.cached_property
    def forward_labels(self) -> np.ndarray:
        """``forward`` as one C-contiguous [row, label] array.  The weighting keeps
        the kernel's memory order, so each reshape of ``forward`` is a copy: the
        checks, the histogram, sigma4 and the support flags read this one."""
        return self.forward.reshape(len(self.forward), -1)

    @functools.cached_property
    def backward_labels(self) -> np.ndarray:
        """``backward`` as :attr:`forward_labels` holds ``forward``; the weighting
        writes C-contiguous backward tables, so this reshape is a view of them."""
        return self.backward.reshape(len(self.backward), -1)

    @functools.cached_property
    def prior_mass(self) -> np.ndarray:
        """The backward prior mass of each row: the total weight its backward run is fed."""
        return self.weights.sum(axis=(1, 2, 3))

    @functools.cached_property
    def reset_prob(self) -> np.ndarray | None:
        """Each row's probability that the backward run returns the memory to 1,
        or None for a kernel without a reset array (read from measured tables)."""
        if (reset := self.kernel.backward_reset) is None:
            return None
        with np.errstate(all="ignore"):  # 0 / 0 where a row has no prior mass
            return (reset * self.weights).sum(axis=(1, 2, 3)) / self.prior_mass

    def tables(self, r: int) -> tuple[TrajectoryTable, TrajectoryTable | None]:
        """Row ``r`` as a :class:`TrajectoryTable` pair, whose checks then run.

        For rows :func:`weigh_rows` built from a kernel of shared conditionals.
        Rows made by :meth:`of` hold no kernel and raise ``ValueError``.
        """
        kernel = self.kernel
        if kernel is None:
            raise ValueError("rows made by TableRows.of carry no kernel to rebuild tables from")
        gibbs = self.gibbs(r)
        fwd = TrajectoryTable(
            self.forward[r], "forward", gibbs, self.dims, conditionals=kernel.forward_cond
        )
        if self.backward is None:
            return fwd, None
        prior_mass, reset = float(self.prior_mass[r]), self.reset_prob
        return fwd, TrajectoryTable(
            self.backward[r], "backward", gibbs, self.dims, prior_mass=prior_mass,
            unlabeled_mass=float(self.unlabeled[r]), conditionals=kernel.backward_cond,
            demon_reset_prob=None if reset is None or not prior_mass > 0 else float(reset[r]),
        )


def weigh_rows(
    kernel: ProtocolKernel, beta_cavity: float | np.ndarray, dbeta: np.ndarray
) -> TableRows:
    """Tables of ``kernel`` at every bias point of ``dbeta``, stacked.

    Row ``r`` is the table pair :func:`point_tables` gives at
    ``GibbsSpec.from_dbeta(beta_cavity, dbeta[r])``, bit for bit
    (:meth:`TableRows.tables`); no table check runs (see :func:`check_rows`).
    A row may also have its own cavity temperature (``beta_cavity[r]``) and,
    without backward conditionals, its own forward conditionals
    (``kernel.forward_cond[r]``).
    """
    return _weigh_rows(kernel, beta_cavity, beta_cavity * (1.0 - dbeta), dbeta)


def _weigh_rows(
    kernel: ProtocolKernel,
    beta_cavity: float | np.ndarray,
    beta_qubit: np.ndarray,
    dbeta: np.ndarray,
    backward_pk: np.ndarray | None = None,
) -> TableRows:
    """The thermal weighting: :func:`weigh_rows` at each row's ``beta_qubit`` as
    given, its forward cavity prior the first ``dim_cavity_init`` cavity weights of
    :func:`gibbs_weights`.  ``backward_pk[r]``, if given, weights the backward
    branches in place of the forward tables' p(k)."""
    dims = kernel.dims
    zeta_q, w_cav = gibbs_weights(beta_qubit, beta_cavity, dims)
    forward = _forward_rows(kernel.forward_cond, zeta_q, w_cav[..., :dims.dim_cavity_init])
    pk = _branch_rows(forward)
    weighed = (dims, beta_cavity, beta_qubit, dbeta, forward, pk, zeta_q, w_cav)
    if kernel.backward_cond is None:
        return TableRows(*weighed, kernel=kernel)
    labeled, unlabeled, weights = _backward_rows(
        kernel.backward_cond, zeta_q, w_cav, pk if backward_pk is None else backward_pk, dims
    )
    return TableRows(*weighed, labeled, unlabeled, weights, kernel)


# ---------------------------------------------------------------------------
# Kernels and the tables of one bias point


@dataclass(frozen=True, eq=False)
class ProtocolKernel:
    """Bias-independent dynamics of one run: both conditional arrays.

    ``forward_cond[m_Q, k, m_C, n_Q, n_C]`` is p(m_Q, k, m_C | n_Q, n_C), shape
    (2, 2, dim_cavity_full, 2, dim_cavity_init): summing its first three axes
    gives one for every initial label, and the memory starts at 1.
    ``backward_cond[n_Q, n_C, m_Q, k, m_C]`` is p(n_Q, n_C | m_Q, k, m_C) of the
    reversed run from the branch configuration (m_Q, k, m_C), shape
    (2, dim_cavity_full, 2, 2, dim_cavity_full): n_C is on the evolved space,
    since the reversed run can overflow the initial truncation, and the final
    memory is traced out.  ``backward_reset[m_Q, k, m_C]`` is the probability
    that the memory returned to 1, a reversal-quality diagnostic, never a
    filter.  The columns of a pair (m_Q, k) the register cannot hold — (1, 0)
    in physical mode — are zero.

    ``backward_cond`` is None for a forward-only analysis, and
    ``backward_reset`` and ``chain`` (the forward gate chain) are None when
    the kernel was read from measured tables.  Without backward conditionals,
    ``forward_cond`` may hold one array per row of :func:`weigh_rows`.
    """

    dims: SystemDims
    forward_cond: np.ndarray
    backward_cond: np.ndarray | None
    backward_reset: np.ndarray | None = None
    chain: GateChain | None = None


def simulated_kernel(
    model: ErrorModel | None,
    dims: SystemDims = DEFAULT_DIMS,
    mode: str = "ideal",
    back_model: ErrorModel | None = None,
) -> ProtocolKernel:
    """Kernel simulated from ``model``, its gate chain built once for both directions.

    The backward run takes a chain of its own only when ``back_model`` is given.
    """
    chain = _gate_chain(model, dims, mode)
    back = chain if back_model is None else _gate_chain(back_model, dims, mode)
    cond = np.ascontiguousarray(np.transpose(_evolve(chain, False), (2, 3, 4, 0, 1)))
    final = _evolve(back, True)  # [start (m_Q, k), m_C, n_Q, n_D, n_C]
    full = dims.dim_cavity_full
    bcond, reset = np.zeros((2, full, 2, 2, full)), np.zeros((2, 2, full))
    m_q, k = np.array(back.encoding).T
    # the memory summed out, and the weight with the memory back at m_D = 1
    bcond[:, :, m_q, k] = np.transpose(final.sum(axis=3), (2, 3, 0, 1))
    reset[m_q, k] = final[:, :, :, 1].sum(axis=-1).sum(axis=-1)
    return ProtocolKernel(dims, cond, bcond, reset, chain)


def measured_kernel(
    forward: ConditionalTable,
    backward: ConditionalTable | None,
    dims: SystemDims = DEFAULT_DIMS,
) -> ProtocolKernel:
    """Kernel read from measured conditional-probability tables.

    Weighting it gives the same tables as a direct simulation, so analyzing
    serialized conditionals reproduces a sweep exactly.  The tables carry
    their register: physical tables have no (m_Q=1, k=0) columns, and their
    backward k = 0 weight is reassigned as in a simulation.
    """
    if forward.orientation != "forward-rows-initial":
        raise ValueError("forward conditionals must be row-oriented on initial labels")
    if backward is not None and backward.orientation != "backward-rows-final":
        raise ValueError("backward conditionals must be row-oriented on final labels")
    cond = np.ascontiguousarray(np.transpose(forward.to_grid(dims), (2, 3, 4, 0, 1)))
    bcond = None if backward is None else backward.to_grid(dims)
    return ProtocolKernel(dims, cond, bcond)


def _point_rows(kernel: ProtocolKernel, gibbs: GibbsSpec, pk=None) -> TableRows:
    """The one row of ``kernel`` at ``gibbs``; a given ``pk`` weights the backward run."""
    return _weigh_rows(
        kernel,
        gibbs.beta_cavity,
        np.array([gibbs.beta_qubit]),
        np.array([gibbs.dbeta_tilde]),
        None if pk is None else np.asarray(pk, dtype=float)[None],
    )


def point_tables(
    kernel: ProtocolKernel, gibbs: GibbsSpec
) -> tuple[TrajectoryTable, TrajectoryTable | None]:
    """Thermally weighted forward/backward tables at one bias point: row 0 of
    :func:`weigh_rows`, at ``gibbs.beta_qubit`` as given."""
    return _point_rows(kernel, gibbs).tables(0)


# ---------------------------------------------------------------------------
# Full-state oracle


def oracle_rows(
    chain: GateChain, beta_qubit: np.ndarray, beta_cavity: float, stages: tuple[str, ...]
) -> tuple[np.ndarray, ...]:
    """Average joint (qubit, memory, cavity) state of the forward protocol at
    each of ``stages``, for a block of bias points, from one pass over ``chain``.

    Row ``r`` evolves the thermal initial mixture at ``beta_qubit[r]`` and the
    shared ``beta_cavity`` as one distribution instead of
    trajectory-by-trajectory, from priors of its own; marginals of the
    trajectory tables must agree with it, which cross-checks the bookkeeping.
    Each gate takes the whole block in one ``np.matmul``, a matrix-vector
    product per row, so a row has the bits of a one-point pass.  A stage taps
    the state before the readout ("initial"), between readout and feedback
    ("pre_feedback"), after feedback ("post_feedback") or after relaxation and
    detection ("final"; identical to post_feedback in ideal mode).  Returns
    one ``[r, n_Q, n_D, n_C]`` array per stage; no stages give none.
    """
    for stage in stages:
        if stage not in STAGES:
            raise ValueError(f"stage must be one of {tuple(STAGES)}, got {stage!r}")
    if not stages:
        return ()
    model, dims, encoding = chain.model, chain.dims, chain.encoding
    full = dims.dim_cavity_full
    p_qubit = gibbs_distribution(np.asarray(beta_qubit, dtype=float)[:, None], 2)
    p_cavity = gibbs_distribution(beta_cavity, dims.dim_cavity_init)
    register = sum(
        p_qubit[:, n_q, None] * prepare_register((n_q, 1), model.eps_prep, encoding)
        for n_q in range(2)
    )
    cavity = sum(
        p_cavity[n_c] * prepare_cavity(n_c, model, dims)
        for n_c in range(dims.dim_cavity_init)
    )
    rows = len(register)
    # states[g]: each row's state after g gates, as a column
    states = [(register[:, :, None] * cavity).reshape(rows, -1, 1)]
    for gate in chain.gates[:max(STAGES[stage] for stage in stages)]:
        states.append(np.matmul(gate.matrix, states[-1]))
    return tuple(
        _place(states[STAGES[stage]].reshape(rows, len(encoding), full), encoding)
        for stage in stages
    )


def oracle_states(
    chain: GateChain, gibbs: GibbsSpec, stages: tuple[str, ...]
) -> tuple[JointDistribution, ...]:
    """The joint states of :func:`oracle_rows` at one bias point: its row 0,
    each checked as a :class:`JointDistribution`."""
    taps = oracle_rows(chain, np.array([gibbs.beta_qubit]), gibbs.beta_cavity, stages)
    return tuple(JointDistribution(chain.dims, joint[0]) for joint in taps)


def final_state_rows(forward: np.ndarray) -> np.ndarray:
    """Final joint state implied by each of stacked forward tables, as [r, m_Q, k, m_C].

    The memory axis carries the readout outcome, matching the layout of
    :func:`oracle_rows` at stage "final".
    """
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
    tolerance: float = SIGMA_TOL

    def __post_init__(self) -> None:
        s = np.asarray(self.sigma, dtype=float)
        pf = np.asarray(self.p_forward, dtype=float)
        pb = np.asarray(self.p_backward, dtype=float)
        for name, arr in (("sigma", s), ("p_forward", pf), ("p_backward", pb)):
            object.__setattr__(self, name, arr)
        if not (s.shape == pf.shape == pb.shape) or s.ndim != 1:
            raise ValueError("sigma, p_forward, p_backward must be equal-length vectors")
        _check_tolerance(self.tolerance)
        # where several checks fail, the last one reports
        fault = _mass_faults(pf.sum(keepdims=True), 1.0, "sigma histogram forward weight").get(0)
        if (pf < 0).any() or (pb < 0).any():
            fault = ValueError("negative histogram weight")
        if (np.diff(s) <= self.tolerance).any():
            fault = ValueError("sigma bins must be strictly increasing beyond tolerance")
        _report(fault)


def _check_tolerance(tol: float) -> None:
    if not tol >= 0.0:  # NaN too: it opens a bin at every gap and passes the order check
        raise ValueError(f"sigma tolerance must be a non-negative number, got {tol!r}")


def sigma_histogram(
    fwd: TrajectoryTable,
    bwd: TrajectoryTable,
    tol: float = SIGMA_TOL,
) -> SigmaHistogram:
    """Bin trajectory weights by their stochastic entropy production.

    Trajectories are keyed by sigma and sorted; each bin is anchored at its
    smallest value and takes every following value within ``tol`` of that
    anchor.  Only forward-possible trajectories (p(gamma) > 0) contribute — a
    backward run ending in a label the forward protocol cannot produce is a
    failed reversal with no partner trajectory.
    """
    return histogram_rows(TableRows.of(fwd, bwd), tol).row(0)


@dataclass(frozen=True, eq=False)
class HistogramRows:
    """Sigma histograms of stacked rows, each left-aligned and zero-padded.

    Row ``r`` has ``size[r]`` bins; :meth:`row` gives it as a
    :class:`SigmaHistogram`, whose checks then run.  The rows themselves are
    not checked: :func:`histogram_rows` opens a bin only beyond its tolerance,
    and sums the entries of tables :func:`check_rows` has passed.
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


def check_rows(rows: TableRows) -> None:
    """Run the checks of each row's tables, as building them would.

    Row after row, the forward table and then the backward table are
    checked: each warning is given in that order, and the first failure
    raises.  These are a block's only checks: its sigma histograms, binned
    from checked rows (:func:`histogram_rows`), are not checked again.
    """
    checks = [_table_faults(rows.forward, rows.forward_labels, "forward")]
    if rows.backward is not None:
        checks.append(_table_faults(rows.backward, rows.backward_labels, "backward",
                                    rows.prior_mass, rows.unlabeled))
    for r in sorted(set().union(*checks)):
        for faults in checks:
            _report(faults.get(r))


def histogram_rows(rows: TableRows, tol: float = SIGMA_TOL) -> HistogramRows:
    """:func:`sigma_histogram` of every row of a block, bit for bit.

    Rows sharing a forward support are binned together.  A bin opens where
    the gap to the previous value exceeds ``tol``, and again wherever a value
    lies beyond ``tol`` of its bin's anchor.  Each bin sums its members left
    to right in sorted order (a running sum, never pairwise).

    Every label of a (Delta q, Delta c, k) class has the same sigma
    (:func:`label_classes`).  So a row whose class values lie more than
    ``tol`` apart has one bin per class, holding the class's labels in index
    order as the stable sort leaves them: such a row sorts its classes, not
    its labels, and sums each class's labels in the same order
    (:func:`_class_bins`).  The class bins are made for every row of a
    support, reading the block in place; the other rows then sort their
    labels (:func:`_label_bins`), and their bins replace the class bins.
    """
    _check_tolerance(tol)
    count = len(rows.dbeta)
    fwd, bwd = rows.forward_labels, rows.backward_labels
    class_sigma = _class_sigma_rows(rows.beta_qubit, rows.beta_cavity, rows.pk, rows.dims)
    class_of = label_classes(rows.dims)[0]
    parts = []
    for sel, cols in row_groups(fwd > 0.0):
        if not cols.size:  # nothing is forward-possible: a table check fails these rows
            parts.append((sel, np.zeros((3, len(fwd[sel]), 0)), 0))
            continue
        present, members, depths = _support_members(rows.dims, cols.tobytes())
        sigma = class_sigma[sel][:, present]
        order = np.argsort(sigma, axis=1, kind="stable")
        sigma = sigma[np.arange(len(sigma))[:, None], order]
        bins = _class_bins(sigma, order, fwd, bwd, sel, members, depths)
        parts.append((sel, bins, len(present)))
        # a tie, a near-tie or a non-finite value puts several classes in one bin
        apart = np.isfinite(sigma).all(axis=1) & (np.diff(sigma, axis=1) > tol).all(axis=1)
        if not apart.all():
            bins[:, ~apart] = 0.0  # the padding of the label bins that replace them
            by_label = np.arange(count)[sel][~apart]
            labels = np.stack((class_sigma[by_label][:, class_of[cols]],
                               fwd[by_label][:, cols], bwd[by_label][:, cols]), axis=-1)
            parts.append((by_label, *_label_bins(labels, tol)))
    width = max(bins.shape[2] for _, bins, _ in parts)
    sigma, p_f, p_b = out = np.zeros((3, count, width))
    size = np.empty(count, dtype=int)
    for sel, bins, sizes in parts:
        out[:, sel, :bins.shape[2]] = bins
        size[sel] = sizes
    return HistogramRows(sigma, p_f, p_b, size, tol)


@functools.lru_cache(maxsize=64)
def _support_members(
    dims: SystemDims, support: bytes
) -> tuple[np.ndarray, np.ndarray, tuple[tuple[slice, slice], ...]]:
    """The classes of the labels of a support, and their labels depth by depth.

    ``support`` holds the label indices as ``np.intp`` bytes.  ``present``
    lists the classes, those with more labels first (ties in class order).
    ``members`` lists the labels depth-major: depth 0 holds the first label of
    every class, in the order of ``present``, and depth ``d`` the ``d``-th
    label of each class that has one, which are the first ``w`` classes.  Each
    ``(head, tail)`` of ``depths``, one per depth past 0, slices those ``w``
    classes and their ``d``-th labels out of ``members``.  Read-only arrays.
    """
    class_of = label_classes(dims)[0]
    cols = np.frombuffer(support, dtype=np.intp)  # ascending: index order
    classes, class_index, counts = np.unique(
        class_of[cols], return_inverse=True, return_counts=True
    )
    rank = np.argsort(-counts, kind="stable")
    place = np.argsort(rank)[class_index]  # each label's class, as a place in present
    earlier = np.cumsum(place[:, None] == np.arange(len(classes)), axis=0)
    depth = earlier[np.arange(len(cols)), place] - 1
    members = cols[np.lexsort((place, depth))]
    ends = np.cumsum(np.bincount(depth)).tolist()
    depths = tuple((slice(0, end - start), slice(start, end))
                   for start, end in zip(ends, ends[1:]))
    present = classes[rank]
    for array in (present, members):
        array.setflags(write=False)
    return present, members, depths


def _class_bins(sigma, order, fwd, bwd, sel, members, depths) -> np.ndarray:
    """Bins of the rows ``sel`` of ``fwd`` and ``bwd``, one class per bin.

    ``sigma[r]`` holds the row's sorted class values and ``order[r]`` their
    places in ``present`` (:func:`_support_members`).  Each class sums its
    labels in index order, the running sum the label sort would make: one
    gather per side takes every member, and each depth adds its members to
    the class totals of both sides in place, in one contiguous run.
    """
    total = np.empty((len(members), 2, len(sigma)))  # [member, side, r]
    total[:, 0] = fwd.T[members][:, sel]
    total[:, 1] = bwd.T[members][:, sel]
    for head, tail in depths:  # the first members become the class totals
        total[head] += total[tail]
    count = len(sigma)
    at = order * (2 * count)
    at += np.arange(count)[:, None]  # each bin's forward total, in total.ravel()
    bins = np.empty((3, *sigma.shape))
    bins[0] = sigma
    total.take(at, out=bins[1], mode="clip")  # "clip": "raise" would buffer out
    at += count
    total.take(at, out=bins[2], mode="clip")
    return bins


def _label_bins(labels: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Bins and bin counts of rows of ``labels[r, label, (sigma, forward, backward)]``,
    sorted label by label."""
    lines = np.arange(len(labels))[:, None]
    cols = np.argsort(labels[..., 0], axis=1, kind="stable")
    sorted_labels = labels[lines, cols]
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
    return bins, bin_of[:, -1] + 1


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


# ---------------------------------------------------------------------------
# Pinned by the benchmark: ``perfbench/`` names these and no command calls them


def forward_conditionals(
    model: ErrorModel | None = None, dims: SystemDims = DEFAULT_DIMS, mode: str = "ideal"
) -> np.ndarray:
    """``simulated_kernel(model, dims, mode).forward_cond``."""
    return simulated_kernel(model, dims, mode).forward_cond


def backward_conditionals(
    model: ErrorModel | None = None, dims: SystemDims = DEFAULT_DIMS, mode: str = "ideal"
) -> tuple[np.ndarray, np.ndarray]:
    """The kernel's ``(backward_cond, backward_reset)``."""
    return (kernel := simulated_kernel(model, dims, mode)).backward_cond, kernel.backward_reset


def forward_table(
    gibbs: GibbsSpec,
    model: ErrorModel | None = None,
    dims: SystemDims = DEFAULT_DIMS,
    mode: str = "ideal",
) -> TrajectoryTable:
    """The forward table of :func:`point_tables` on a model's kernel."""
    return point_tables(simulated_kernel(model, dims, mode), gibbs)[0]


def backward_table(
    gibbs: GibbsSpec,
    model: ErrorModel | None = None,
    dims: SystemDims = DEFAULT_DIMS,
    mode: str = "ideal",
    forward_pk: np.ndarray | None = None,
) -> TrajectoryTable:
    """The backward table of :func:`point_tables` on a model's kernel, its branches
    weighted by ``forward_pk`` (default: the forward table's p(k))."""
    return _point_rows(simulated_kernel(model, dims, mode), gibbs, forward_pk).tables(0)[1]


def tables_from_conditionals(
    fwd_cond, bwd_cond, gibbs: GibbsSpec, dims: SystemDims = DEFAULT_DIMS
) -> tuple[TrajectoryTable, TrajectoryTable | None]:
    """``point_tables(measured_kernel(...), gibbs)``."""
    return point_tables(measured_kernel(fwd_cond, bwd_cond, dims), gibbs)


def oracle_full_state(
    gibbs: GibbsSpec,
    model: ErrorModel | None = None,
    dims: SystemDims = DEFAULT_DIMS,
    mode: str = "ideal",
    stage: str = "final",
) -> JointDistribution:
    """:func:`oracle_states` at one ``stage``."""
    return oracle_states(_gate_chain(model, dims, mode), gibbs, (stage,))[0]
