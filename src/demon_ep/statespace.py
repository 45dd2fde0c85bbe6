"""State spaces, thermal distributions, and classical information measures.

Everything downstream works with diagonal (classical) states over a small
tensor product: a two-level qubit Q, a two-level memory D, and a cavity mode C
truncated to a few Fock states.  Distributions are plain 1-D ``numpy`` arrays;
the joint state carries its axis layout in :class:`JointDistribution`.

Energies are measured in units of the shared quantum ``omega`` (the qubit
transition and the cavity spacing are resonant), so inverse temperatures enter
only through the dimensionless combination ``beta * omega``.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "AXES",
    "GibbsSpec",
    "JointDistribution",
    "SystemDims",
    "condition",
    "extended_gibbs",
    "gibbs_distribution",
    "marginalize",
    "mean_occupation",
    "mutual_information",
    "relative_entropy",
    "relative_entropy_rows",
    "shannon_entropy",
    "shannon_entropy_rows",
]

#: Axis order of every joint array: qubit, memory (demon), cavity.
AXES = ("qubit", "demon", "cavity")

_NORM_TOL = 1e-12
#: a probability mass off by at most MASS_SOFT_TOL passes silently, by at most
#: MASS_HARD_TOL warns (measured input carries finite statistics), beyond fails
MASS_SOFT_TOL = 1e-9
MASS_HARD_TOL = 1e-3
#: default rounding tolerance under which two sigma values share a histogram bin
SIGMA_TOL = 1e-9


def _mass_faults(total: np.ndarray, expected, what: str) -> dict[int, Exception]:
    """The mass rule of every table and histogram check, as {row: ValueError or UserWarning}:
    a mass beyond the hard tolerance (or not finite) fails; beyond the soft one warns."""
    err = np.abs(total - expected)
    faults: dict[int, Exception] = {}
    if (err <= MASS_SOFT_TOL).all():
        return faults
    expected = np.broadcast_to(expected, total.shape)
    for r in np.flatnonzero(~(err <= MASS_SOFT_TOL)).tolist():
        t, e = float(total[r]), float(err[r])
        if not math.isfinite(t):
            faults[r] = ValueError(f"{what}: mass {t!r} is not finite")
        elif not e <= MASS_HARD_TOL:  # a NaN expected mass makes a NaN error
            faults[r] = ValueError(f"{what}: mass {t!r} differs from {float(expected[r])!r}")
        else:
            faults[r] = UserWarning(
                f"{what}: mass off by {e:.2e} (tolerated, likely measured input)"
            )
    return faults


def _report(fault: Exception | None) -> None:
    """Raise an error, or warn at the caller outside the package (:func:`_warn`)."""
    if isinstance(fault, Warning):
        _warn(fault)
    elif fault is not None:
        raise fault


def _warn(message: str | Warning) -> None:
    """``warnings.warn(message)``, its file and line those of the first frame
    outside this package: the caller's line, not a check's, a parser's or the
    ``__init__`` a dataclass generates.  Python 3.12's ``skip_file_prefixes``
    would do this; 3.10 and 3.11 need the walk."""
    frame, level = sys._getframe(1), 2
    # by module, not by file: a dataclass's generated __init__ runs in its
    # class's module, under the file name "<string>"
    while (frame.f_back is not None
           and frame.f_globals.get("__name__", "").partition(".")[0] == __package__):
        frame, level = frame.f_back, level + 1
    warnings.warn(message, stacklevel=level)


@dataclass(frozen=True)
class SystemDims:
    """Cavity level counts; the qubit and the memory are two-level systems.

    ``dim_cavity_init`` is the truncation used for the initial thermal state
    (the feedback step can add one photon, so the evolved cavity lives on the
    larger ``dim_cavity_full`` space).
    """

    dim_cavity_init: int = 4
    dim_cavity_full: int = 5

    def __post_init__(self) -> None:
        for name in ("dim_cavity_init", "dim_cavity_full"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.dim_cavity_init < 2:
            raise ValueError("cavity needs at least two levels")
        if self.dim_cavity_full < self.dim_cavity_init + 1:
            raise ValueError(
                "evolved cavity space must exceed the initial truncation by "
                "at least one level (feedback can add a photon)"
            )

    @property
    def joint_shape(self) -> tuple[int, int, int]:
        return (2, 2, self.dim_cavity_full)


DEFAULT_DIMS = SystemDims()


@dataclass(frozen=True)
class GibbsSpec:
    """Inverse temperatures of qubit and cavity baths, in units of 1/omega.

    The sweep parameter ``dbeta_tilde`` fixes the qubit temperature relative
    to the cavity one via ``beta_qubit = beta_cavity * (1 - dbeta_tilde)``;
    negative ``beta_qubit`` (population inversion) is allowed, the cavity bath
    must be at a genuine positive temperature.
    """

    beta_qubit: float
    beta_cavity: float
    dbeta_tilde: float = field(default=float("nan"))

    def __post_init__(self) -> None:
        if not 0 < self.beta_cavity < math.inf:
            raise ValueError("cavity inverse temperature must be positive and finite")
        if math.isinf(self.dbeta_tilde):  # a NaN one is derived from the temperatures
            raise ValueError(f"dbeta_tilde must be finite, got {self.dbeta_tilde!r}")
        if not math.isfinite(self.beta_qubit):
            raise ValueError(f"beta_qubit must be finite, got {self.beta_qubit!r}")
        if math.isnan(self.dbeta_tilde):
            dbeta = 1.0 - self.beta_qubit / self.beta_cavity
            if math.isinf(dbeta):  # the ratio overflows
                raise ValueError(f"dbeta_tilde must be finite, got {dbeta!r} from the temperatures")
            object.__setattr__(self, "dbeta_tilde", dbeta)
        else:
            expected = self.beta_cavity * (1.0 - self.dbeta_tilde)
            if abs(expected - self.beta_qubit) > 1e-9 * max(1.0, abs(expected)):
                raise ValueError("inconsistent (beta_qubit, beta_cavity, dbeta_tilde) triple")

    @classmethod
    def from_dbeta(cls, beta_cavity: float, dbeta_tilde: float) -> "GibbsSpec":
        return cls(
            beta_qubit=beta_cavity * (1.0 - dbeta_tilde),
            beta_cavity=beta_cavity,
            dbeta_tilde=dbeta_tilde,
        )

    @property
    def delta_beta(self) -> float:
        """beta_cavity - beta_qubit = beta_cavity * dbeta_tilde."""
        return self.beta_cavity - self.beta_qubit


def gibbs_distribution(beta_omega, levels: int) -> np.ndarray:
    """Thermal occupation of a harmonic ladder with ``levels`` states.

    Parameters
    ----------
    beta_omega:
        Dimensionless inverse temperature ``beta * omega``.  May be negative
        (inverted populations), or a column of them (shape ``(R, 1)``) for
        one distribution per row.
    levels:
        Number of ladder states kept, energies 0, 1, ..., levels-1 (in units
        of omega); the weights are normalized over the kept levels.
    """
    if levels < 1:
        raise ValueError("need at least one level")
    return extended_gibbs(beta_omega, levels, levels)


def extended_gibbs(beta_omega, levels_norm: int, levels_total: int) -> np.ndarray:
    """Thermal weights normalized on the first ``levels_norm`` levels, then
    extended to ``levels_total`` levels by the exact Boltzmann factors.

    The result sums to slightly more than one: the extra levels carry the
    genuine Boltzmann weight ``e^(-beta_omega * n) / Z_norm``.  This is the
    single-free-energy convention used for the backward-protocol priors and
    the thermal reference of the divergence-based estimators, so that forward
    and backward weights share one normalization constant per subsystem.
    ``beta_omega`` may be a column (shape ``(R, 1)``) for one set of weights
    per row, as in :func:`gibbs_distribution`.
    """
    if levels_total < levels_norm:
        raise ValueError("levels_total must be >= levels_norm")
    n = np.arange(levels_total, dtype=float)
    weights = np.exp(-beta_omega * n)
    z_norm = weights[..., :levels_norm].sum(axis=-1, keepdims=True)
    return weights / z_norm


def mean_occupation(dist: np.ndarray) -> float:
    """Average level index <n> of a ladder distribution."""
    p = np.asarray(dist, dtype=float)
    return float(np.dot(np.arange(p.size), p))


def shannon_entropy(dist) -> float:
    """Shannon entropy -sum p ln p in nats, with 0 ln 0 = 0.

    Accepts arrays of any shape (flattened); tolerates unnormalized input so
    it can also evaluate sub-normalized reference measures.
    """
    return float(shannon_entropy_rows(np.asarray(dist, dtype=float)[None])[0])


def relative_entropy(p, q) -> float:
    """Kullback-Leibler divergence sum p ln(p/q) in nats.

    Returns ``inf`` when ``p`` has support where ``q`` vanishes.  ``q`` may be
    an unnormalized reference measure; ``p`` should be a distribution for the
    usual non-negativity guarantee.  Terms whose ratio p/q overflows or
    underflows take ln p - ln q instead, so a finite divergence stays finite.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.size != q.size:
        raise ValueError("p and q must have the same shape")
    return float(relative_entropy_rows(p[None], q[None])[0])


def row_groups(mask: np.ndarray) -> list[tuple]:
    """``(rows, columns)`` for each distinct row of a 2-D boolean array.

    ``rows`` indexes the leading axis (a slice when every row is alike, the
    common case) and ``columns`` lists the row's true entries.  Rows are
    compared with row 0 first, so only a mixed block pays for keying its
    rows by their bytes.
    """
    if len(mask) == 1 or (mask == mask[0]).all():
        return [(slice(None), mask[0].nonzero()[0])]
    groups: dict[bytes, list[int]] = {}
    for i, row in enumerate(mask):
        groups.setdefault(row.tobytes(), []).append(i)
    return [(np.array(rows), mask[rows[0]].nonzero()[0]) for rows in groups.values()]


def _pairwise_sum(lanes: np.ndarray) -> np.ndarray:
    """numpy's ``x.sum(axis=-1)`` of a contiguous last axis, bit for bit, given as
    ``lanes[j] = x[..., j]``.

    numpy sums a run of n values left to right below 8 values; up to 128 in
    eight running sums (sum j takes values j, j + 8, ...) added as
    ((0 + 1) + (2 + 3)) + ((4 + 5) + (6 + 7)) before the rest, left to right;
    beyond 128 it halves the run at a multiple of 8.  The reduction adds that to
    a zero start, so -0.0 reads 0.0.  Each step here is one add over every run
    of the array at once: a short run costs no loop of its own.
    """
    total = _pairwise(lanes)
    return np.add(total, 0.0, out=total)


def _pairwise(lanes: np.ndarray) -> np.ndarray:
    n = len(lanes)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise(lanes[:half]) + _pairwise(lanes[half:])
    if n < 8:  # -0.0 + x is x
        total, end = lanes[0].copy(), 1
    else:
        end = n - n % 8
        sums = lanes[:8] + lanes[8:16] if end > 8 else lanes[:8]
        for start in range(16, end, 8):
            sums += lanes[start:start + 8]
        pairs = sums[0::2] + sums[1::2]
        quads = pairs[0::2] + pairs[1::2]
        total = quads[0] + quads[1]
    if end < n:
        for lane in lanes[end:]:
            total += lane
    return total


def _dot_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # on C-contiguous rows (what ``take`` returns) every dot product runs the
    # BLAS kernel a 1-D np.dot runs, so blocks and single rows agree bit for bit
    return np.matmul(a[:, None], b[..., None]).ravel()


def _over_supports(p: np.ndarray, total_of) -> np.ndarray:
    """``total_of(rows, columns)`` for each group of rows sharing a support of ``p``."""
    groups = row_groups(p > 0.0)
    if len(groups) == 1:
        return total_of(*groups[0])
    out = np.empty(len(p))
    for rows, columns in groups:
        out[rows] = total_of(rows, columns)
    return out


def shannon_entropy_rows(p: np.ndarray) -> np.ndarray:
    """:func:`shannon_entropy` of each entry along the leading axis."""
    p = p.reshape(len(p), -1)
    if len(p) == 1:  # a 1-D np.dot runs the ddot a row of a block runs (_dot_rows)
        nz = p[0].take((p[0] > 0.0).nonzero()[0])
        return np.array([-np.dot(nz, np.log(nz))])

    def sum_p_log_p(rows, columns):
        nz = p[rows].take(columns, axis=1)
        return _dot_rows(nz, np.log(nz))

    return -_over_supports(p, sum_p_log_p)


def relative_entropy_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """:func:`relative_entropy` of each pair of entries along the leading axis.

    Every row's sum is taken first.  Only a row whose sum is not finite is
    looked at again: it is +inf if q <= 0 anywhere on p's support (such a q
    always makes the sum inf or NaN), and otherwise the terms whose ratio
    overflowed to inf or underflowed to 0 take ln p - ln q and the row is
    summed again.
    """
    p, q = p.reshape(len(p), -1), q.reshape(len(q), -1)

    def divergence(rows, columns):
        pm, qm = p[rows].take(columns, axis=1), q[rows].take(columns, axis=1)
        logs = np.log(pm / qm)
        sums = _dot_rows(pm, logs)
        if not np.isfinite(sums).all():
            lost = ~np.isfinite(sums)
            pm, qm, logs = pm[lost], qm[lost], logs[lost]
            gone = np.isinf(logs)
            logs[gone] = np.log(pm[gone]) - np.log(qm[gone])
            redone = _dot_rows(pm, logs)
            redone[(qm <= 0.0).any(axis=1)] = math.inf
            sums[lost] = redone
        return sums

    with np.errstate(all="ignore"):
        if len(p) == 1:  # a 1-D np.dot runs the ddot a row of a block runs (_dot_rows)
            columns = (p[0] > 0.0).nonzero()[0]
            pm = p[0].take(columns)
            total = np.dot(pm, np.log(pm / q[0].take(columns)))
            if math.isfinite(total):
                return np.array([total])
        return _over_supports(p, divergence)


@dataclass(frozen=True)
class JointDistribution:
    """Joint diagonal state over (qubit, demon, cavity).

    ``probs`` has shape ``dims.joint_shape`` and must sum to one to 1e-12;
    construction fails loudly otherwise, so that bookkeeping errors in the
    protocol code cannot silently leak probability.
    """

    dims: SystemDims
    probs: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "probs", p)
        if p.shape != self.dims.joint_shape:
            raise ValueError(
                f"probs shape {p.shape} does not match dims {self.dims.joint_shape}"
            )
        if not np.all(p >= -_NORM_TOL):
            raise ValueError("negative or non-finite probability in joint distribution")
        total = float(p.sum())
        if not abs(total - 1.0) <= _NORM_TOL:
            raise ValueError(f"joint distribution sums to {total!r}, not 1")

    def axis(self, name: str) -> int:
        try:
            return AXES.index(name)
        except ValueError:
            raise KeyError(f"unknown axis {name!r}; expected one of {AXES}") from None


def _axis_indices(joint: JointDistribution, names) -> tuple[int, ...]:
    if isinstance(names, str):
        names = (names,)
    return tuple(joint.axis(n) for n in names)


def marginalize(joint: JointDistribution, keep) -> np.ndarray:
    """Marginal distribution over the named axes (order as given in ``keep``)."""
    keep_idx = _axis_indices(joint, keep)
    if len(set(keep_idx)) != len(keep_idx):
        raise ValueError("duplicate axis in keep")
    drop = tuple(i for i in range(3) if i not in keep_idx)
    out = joint.probs.sum(axis=drop) if drop else joint.probs
    # sum() preserves remaining axes in original order; permute to match keep.
    remaining = [i for i in range(3) if i in keep_idx]
    perm = [remaining.index(i) for i in keep_idx]
    return np.transpose(out, perm) if out.ndim > 1 else out


def condition(joint: JointDistribution, on: dict) -> tuple[np.ndarray, float]:
    """Condition on exact values of one or more axes.

    The protocol never calls this; the ``information measures`` check of
    ``demon-ep validate`` uses it to verify the chain rule.

    Parameters
    ----------
    on:
        Mapping from axis name ("qubit", "demon", "cavity") to the observed
        level index.

    Returns
    -------
    (dist, prob):
        ``dist`` is the conditional distribution over the remaining axes (in
        canonical axis order) and ``prob`` the probability of the conditioning
        event.  A zero-probability event yields an all-zero ``dist``.
    """
    idx: list = [slice(None)] * 3
    for name, value in on.items():
        ax = joint.axis(name)
        if not 0 <= int(value) < joint.dims.joint_shape[ax]:
            raise ValueError(f"axis {name!r} has no level {value!r}")
        idx[ax] = int(value)
    slab = joint.probs[tuple(idx)]
    prob = float(slab.sum())
    if prob <= 0.0:
        return np.zeros_like(slab), 0.0
    return slab / prob, prob


def mutual_information(joint: JointDistribution, cut) -> float:
    """Mutual information I(A:B) across a bipartition of the three axes.

    ``cut`` names the axes on side A (e.g. ``("qubit", "cavity")``); side B is
    the complement.  Both sides must be non-empty.
    """
    a_idx = _axis_indices(joint, cut)
    b_idx = tuple(i for i in range(3) if i not in a_idx)
    if not a_idx or not b_idx:
        raise ValueError("cut must split the axes into two non-empty groups")
    p = joint.probs
    pa = p.sum(axis=b_idx)
    pb = p.sum(axis=a_idx)
    return shannon_entropy(pa) + shannon_entropy(pb) - shannon_entropy(p)
