"""Classical stochastic channels for the demon circuit and its imperfections.

Gates and errors act on the basis (level, n_C) of a three-level atom that
carries both logical registers: level e encodes (n_Q=1, n_D=1), g encodes
(0, 1) and f encodes (0, 0).  The readout is a g<->f pi-pulse, the feedback a
resonant e<->g photon exchange, and every error acts on atomic levels.

:data:`ENCODINGS` maps each protocol mode to its register: the logical pair
held by each level.  The physical atom has no level for (1, 0).  The ideal
register appends a fourth level X = (1, 0); the gate builders and
:func:`prepare_register` make X a spectator of every gate and error channel,
so the ideal protocol runs the same chain as the physical one.

Each gate builder makes its atom matrix over (level, n_C) and checks it once,
as one channel: on the atom's labels, or, given an ``encoding``, on that
register's labels ((n_Q, n_D), n_C).  The physical register is the atom
relabelled; the ideal one embeds the atom matrix beside the identity on X.
:func:`register_channel` lifts a channel already built the same way.  The
labels, identities and the feedback's exchange of each cavity dimension are
built on first use and shared, read-only.

Channels are column-stochastic matrices ``m[to, from]`` tagged with their
basis labels, so composition across mismatched spaces fails loudly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from enum import IntEnum

import numpy as np

from .statespace import DEFAULT_DIMS, SystemDims

__all__ = [
    "AtomLevel",
    "ENCODINGS",
    "ERROR_CHANNELS",
    "ErrorModel",
    "StochasticChannel",
    "apply",
    "compose",
    "detection_channel",
    "feedback_channel",
    "physical_labels",
    "prepare_cavity",
    "prepare_register",
    "readout_channel",
    "register_channel",
    "relaxation_channel",
    "time_reverse",
    "two_atom_probability",
]

_COL_TOL = 1e-9


#: Logical pair (n_Q, n_D) held by each register level, in basis order; the
#: first three levels are the atom's e, g, f.
ENCODINGS = {
    "physical": ((1, 1), (0, 1), (0, 0)),
    "ideal": ((1, 1), (0, 1), (0, 0), (1, 0)),
}


class AtomLevel(IntEnum):
    """Circular Rydberg levels, ordered e (highest), g, f (lowest)."""

    E = 0
    G = 1
    F = 2


_ATOM_LEVELS = tuple(AtomLevel)


@functools.lru_cache(maxsize=16)
def _labels(full: int, levels: tuple) -> tuple:
    """The basis labels (level, n_C) of ``levels`` and the Fock states below ``full``."""
    return tuple((level, n) for level in levels for n in range(full))


def physical_labels(dims: SystemDims = DEFAULT_DIMS) -> tuple:
    return _labels(dims.dim_cavity_full, _ATOM_LEVELS)


@functools.lru_cache(maxsize=16)
def _identity(size: int) -> np.ndarray:
    """``np.eye(size)``, read-only."""
    eye = np.eye(size)
    eye.setflags(write=False)
    return eye


@dataclass(frozen=True, eq=False)
class StochasticChannel:
    """Column-stochastic matrix ``matrix[to, from]`` over labelled basis states."""

    matrix: np.ndarray
    labels: tuple

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("channel matrix must be square")
        if len(self.labels) != m.shape[0]:
            raise ValueError("label count does not match matrix dimension")
        # written so that a NaN entry fails: min and max propagate it, and every
        # comparison with NaN is false
        if not (m.min() >= -1e-15 and m.max() <= 1.0 + 1e-12):
            raise ValueError("channel entries must be finite and lie in [0, 1]")
        sums = m.sum(axis=0)
        worst = float(max(sums.max() - 1.0, 1.0 - sums.min()))  # the largest |sum - 1|
        if worst > _COL_TOL:
            raise ValueError(f"columns must sum to 1 (worst deviation {worst:.3e})")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def compose(outer: StochasticChannel, inner: StochasticChannel) -> StochasticChannel:
    """Channel equal to ``inner`` followed by ``outer``."""
    if outer.labels != inner.labels:
        raise ValueError("cannot compose channels over different bases")
    return StochasticChannel(outer.matrix @ inner.matrix, outer.labels)


def apply(channel: StochasticChannel, dist: np.ndarray) -> np.ndarray:
    p = np.asarray(dist, dtype=float).ravel()
    if p.size != channel.dim:
        raise ValueError("distribution size does not match channel basis")
    return channel.matrix @ p


def time_reverse(channel: StochasticChannel) -> StochasticChannel:
    """Transpose of a deterministic (permutation) channel.

    The protocol never calls this; the ``channel reversal`` check of
    ``demon-ep validate`` uses it to certify that the ideal gates invert.
    Only permutations have a channel inverse that is again a channel; for a
    noisy map the transpose is not stochastic, so reversal is refused and the
    caller must instead re-apply the noisy elements around the reversed
    deterministic core (which is what the backward protocol does).
    """
    m = channel.matrix
    is_perm = (
        np.all((m < 1e-12) | (np.abs(m - 1.0) < 1e-12))
        and np.all(np.abs(m.sum(axis=0) - 1.0) < 1e-12)
        and np.all(np.abs(m.sum(axis=1) - 1.0) < 1e-12)
    )
    if not is_perm:
        raise ValueError("only permutation channels can be time-reversed")
    return StochasticChannel(np.round(m).T, channel.labels)


# ---------------------------------------------------------------------------
# Error model


def _default_confusion() -> np.ndarray:
    # detect-row, true-column over (e, g, f); diagonals fixed by normalization
    return np.array(
        [
            [0.98, 0.05, 0.01],
            [0.02, 0.93, 0.05],
            [0.00, 0.02, 0.94],
        ]
    )


def _default_cavity_prep() -> np.ndarray:
    # row = target Fock state, column = actually prepared photon number
    return np.array(
        [
            [1.00, 0.00, 0.00, 0.00, 0.00],
            [0.08, 0.76, 0.16, 0.00, 0.00],
            [0.00, 0.15, 0.75, 0.10, 0.00],
            [0.00, 0.00, 0.17, 0.73, 0.10],
        ]
    )


#: Single-error name -> the :class:`ErrorModel` field holding that channel.
#: A channel is error-free at 0.0 (a probability) or at the identity of the
#: field's shape (a matrix); every other field is a diagnostic.
ERROR_CHANNELS = {
    "eps_prep": "eps_prep",
    "eps_read": "eps_read",
    "eps_feed": "eps_feed",
    "eps_meas": "confusion",
    "cavity_prep": "cavity_prep",
    "relax_atom": "relax_atom_prob",
    "relax_cavity": "relax_cavity_prob",
}


def _error_free(value):
    return np.eye(*np.shape(value)) if np.ndim(value) else 0.0


def _is_error_free(value) -> bool:
    """Whether ``value`` equals :func:`_error_free` of it, without building an identity."""
    if not np.ndim(value):
        return value == 0.0
    diagonal = value.diagonal()
    return bool((diagonal == 1.0).all()) and np.count_nonzero(value) == diagonal.size


def _distributions(m: np.ndarray, axis: int) -> bool:
    """Whether the slices of ``m`` along ``axis`` are distributions: every entry at
    least 0 and every sum within the column tolerance of 1.  Written so that a NaN
    or infinite entry fails: min and max propagate NaN, and every comparison with
    NaN is false."""
    if not m.size:
        return True
    sums = m.sum(axis=axis)
    return bool(m.min() >= 0 and sums.max() - 1.0 <= _COL_TOL and 1.0 - sums.min() <= _COL_TOL)


@dataclass(frozen=True, eq=False)
class ErrorModel:
    """Imperfection parameters of the physical protocol.

    All probabilities are per-run; defaults are the measured values of the
    experiment this models.  ``nbar_atoms`` and ``detect_eff`` only feed the
    two-atom-event diagnostic, never the dynamics.
    """

    eps_prep: float = 0.1
    eps_read: float = 0.11
    eps_feed: float = 0.03
    confusion: np.ndarray = field(default_factory=_default_confusion)
    cavity_prep: np.ndarray = field(default_factory=_default_cavity_prep)
    relax_atom_prob: float = 0.0
    relax_cavity_prob: float = 0.0
    nbar_atoms: float = 0.22
    detect_eff: float = 0.5

    def __post_init__(self) -> None:
        for name in ("eps_prep", "eps_read", "eps_feed", "relax_atom_prob",
                     "relax_cavity_prob", "detect_eff"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
        if not (math.isfinite(self.nbar_atoms) and self.nbar_atoms >= 0.0):
            raise ValueError(
                f"nbar_atoms must be finite and non-negative, got {self.nbar_atoms!r}"
            )
        conf = np.asarray(self.confusion, dtype=float)
        object.__setattr__(self, "confusion", conf)
        if conf.shape != (3, 3):
            raise ValueError("confusion matrix must be 3x3 over (e, g, f)")
        if not _distributions(conf, axis=0):
            raise ValueError("confusion columns must be distributions")
        prep = np.asarray(self.cavity_prep, dtype=float)
        object.__setattr__(self, "cavity_prep", prep)
        if prep.ndim != 2 or prep.shape[1] < prep.shape[0]:
            raise ValueError("cavity_prep must map targets into a larger Fock space")
        if not _distributions(prep, axis=1):
            raise ValueError("cavity_prep rows must be distributions")

    def _idealized(self, keep: str | None = None) -> "ErrorModel":
        """This model with every error channel but the field ``keep`` error-free."""
        return replace(self, **{
            name: _error_free(getattr(self, name))
            for name in ERROR_CHANNELS.values()
            if name != keep
        })

    @classmethod
    def ideal(cls) -> "ErrorModel":
        return cls()._idealized()

    @classmethod
    def single(cls, name: str, base: "ErrorModel | None" = None) -> "ErrorModel":
        """Model with only the named error channel active (others idealized)."""
        if name not in ERROR_CHANNELS:
            raise ValueError(
                f"unknown error channel {name!r}; expected one of {tuple(ERROR_CHANNELS)}"
            )
        source = base if base is not None else cls()
        return source._idealized(keep=ERROR_CHANNELS[name])

    @property
    def is_ideal(self) -> bool:
        return all(_is_error_free(getattr(self, name)) for name in ERROR_CHANNELS.values())


# ---------------------------------------------------------------------------
# Elementary preparations


def prepare_register(pair: tuple, eps_prep: float, encoding: tuple) -> np.ndarray:
    """Distribution over the levels of ``encoding`` from preparing ``pair``.

    Only the e preparation (circularization to the upper level) is imperfect:
    with probability ``eps_prep`` the atom is left in g instead.  A level the
    atom lacks is prepared exactly.
    """
    out = np.zeros(len(encoding))
    level = encoding.index(pair)
    out[level] = 1.0
    if level == AtomLevel.E:
        out[AtomLevel.E], out[AtomLevel.G] = 1.0 - eps_prep, eps_prep
    return out


def prepare_cavity(
    n_target: int,
    model: ErrorModel,
    dims: SystemDims = DEFAULT_DIMS,
) -> np.ndarray:
    """Photon-number distribution from preparing the Fock target ``n_target``.

    Targets covered by the model's impurity table use it; targets beyond the
    table (possible only in the backward protocol, which can start from the
    topmost evolved level) are prepared exactly.
    """
    full = dims.dim_cavity_full
    if not 0 <= n_target < full:
        raise ValueError(f"Fock target {n_target} outside the evolved space")
    out = np.zeros(full)
    if n_target >= model.cavity_prep.shape[0]:
        out[n_target] = 1.0
        return out
    row = model.cavity_prep[n_target]
    out[: row.size] = row
    return out


# ---------------------------------------------------------------------------
# Protocol-step channels


def _on_register(mat: np.ndarray, full: int, encoding: tuple | None) -> StochasticChannel:
    """An atom matrix over (level, n_C) as one channel: on the atom's labels, or on the
    register of ``encoding``, whose levels beyond the atom's three are spectators."""
    if encoding is None:
        return StochasticChannel(mat, _labels(full, _ATOM_LEVELS))
    if len(encoding) > len(AtomLevel):
        lifted = np.eye(full * len(encoding))
        lifted[: len(mat), : len(mat)] = mat
        mat = lifted
    return StochasticChannel(mat, _labels(full, encoding))


def _lift_atom(
    mat3: np.ndarray,
    dims: SystemDims,
    cav: np.ndarray | None = None,
    encoding: tuple | None = None,
) -> StochasticChannel:
    """``np.kron(mat3, cav)`` over (level, n_C), by broadcasting; ``cav`` defaults to 1."""
    full = dims.dim_cavity_full
    cav = _identity(full) if cav is None else cav
    mat = (mat3[:, None, :, None] * cav[None, :, None, :]).reshape(3 * full, 3 * full)
    return _on_register(mat, full, encoding)


def readout_channel(
    eps_read: float = 0.0,
    dims: SystemDims = DEFAULT_DIMS,
    encoding: tuple | None = None,
) -> StochasticChannel:
    """Memory-write step: the g<->f pi-pulse on the atom.

    e is untouched and the cavity a spectator; the pulse fails to transfer
    with probability ``eps_read``.  It is its own inverse, so the same channel
    serves forward and backward runs.  Starting from memory 1 it writes
    k = n_Q.
    """
    swap_gf = np.eye(3)[:, [0, 2, 1]]
    return _lift_atom((1.0 - eps_read) * swap_gf + eps_read * np.eye(3), dims, encoding=encoding)


@functools.lru_cache(maxsize=16)
def _exchange(full: int) -> np.ndarray:
    """The error-free feedback over (level, n_C) of ``full`` Fock states, read-only."""
    perm = np.eye(3 * full)
    for n in range(full - 1):
        a = AtomLevel.E * full + n  # index of label (e, n)
        b = AtomLevel.G * full + n + 1  # index of label (g, n+1)
        perm[[a, b], [a, b]] = 0.0
        perm[a, b] = perm[b, a] = 1.0
    perm.setflags(write=False)
    return perm


def feedback_channel(
    eps_feed: float = 0.0,
    dims: SystemDims = DEFAULT_DIMS,
    encoding: tuple | None = None,
) -> StochasticChannel:
    """Conditional photon exchange.

    Resonant swap on the (e, g) doublet — e,n -> g,n+1 and g,n+1 -> e,n —
    with g,0 dark (no photon to absorb), f a spectator, and the topmost pair
    truncated (e at the highest kept Fock state is fixed).  Fails, acting as
    the identity, with probability ``eps_feed``.
    """
    full = dims.dim_cavity_full
    mat = (1.0 - eps_feed) * _exchange(full) + eps_feed * _identity(3 * full)
    return _on_register(mat, full, encoding)


def detection_channel(
    confusion: np.ndarray,
    dims: SystemDims = DEFAULT_DIMS,
    encoding: tuple | None = None,
) -> StochasticChannel:
    """State-selective ionization readout: true level -> detected level."""
    conf = np.asarray(confusion, dtype=float)
    if conf.shape != (3, 3):
        raise ValueError("confusion matrix must be 3x3 over (e, g, f)")
    return _lift_atom(conf, dims, encoding=encoding)


def relaxation_channel(
    model: ErrorModel,
    dims: SystemDims = DEFAULT_DIMS,
    encoding: tuple | None = None,
) -> StochasticChannel:
    """One-step classical decay during the flight to the detector.

    Atom: e -> g and g -> f, each with probability ``relax_atom_prob`` (single
    step, no double decay).  Cavity: n -> n-1 with probability
    ``n * relax_cavity_prob``.
    """
    pa = model.relax_atom_prob
    atom = np.array(
        [
            [1.0 - pa, 0.0, 0.0],
            [pa, 1.0 - pa, 0.0],
            [0.0, pa, 1.0],
        ]
    )
    full = dims.dim_cavity_full
    cav = np.zeros((full, full))
    for n in range(full):
        down = min(1.0, n * model.relax_cavity_prob)
        cav[n, n] = 1.0 - down
        if n > 0:
            cav[n - 1, n] = down
    return _lift_atom(atom, dims, cav, encoding)


def register_channel(channel: StochasticChannel, encoding: tuple) -> StochasticChannel:
    """An atom channel on the register of ``encoding``, over ((n_Q, n_D), n_C).

    Levels beyond the atom's three are spectators: the identity acts on them.
    """
    return _on_register(channel.matrix, channel.dim // len(AtomLevel), encoding)


def two_atom_probability(nbar: float = 0.22, eff: float = 0.5) -> float:
    """Probability that a single detected atom came from a two-atom sample.

    Samples carry a Poisson(``nbar``) atom number and each atom is detected
    independently with efficiency ``eff``; three-atom samples are neglected.
    The Poisson weights cancel in the ratio of two-atom to all single
    detections, which is (1 - eff) nbar / (1 + (1 - eff) nbar).
    Diagnostic only — two-atom events are not part of the simulated dynamics.
    """
    if not (math.isfinite(nbar) and nbar >= 0) or not 0.0 <= eff <= 1.0:
        raise ValueError("need a finite nbar >= 0 and eff in [0, 1]")
    if eff == 0.0 or nbar == 0.0:  # no single detection
        return 0.0
    odds = (1.0 - eff) * nbar
    return odds / (1.0 + odds)


# ---------------------------------------------------------------------------
# Pinned by the benchmark: ``perfbench/`` names these and no command calls them


def identity_channel(labels) -> StochasticChannel:
    """The identity channel over ``labels``."""
    return StochasticChannel(np.eye(len(labels)), tuple(labels))


def prepare_atom(level: AtomLevel, eps_prep: float = 0.0) -> np.ndarray:
    """``prepare_register`` of ``level`` on the physical atom (e, g, f)."""
    physical = ENCODINGS["physical"]
    return prepare_register(physical[level], eps_prep, physical)
