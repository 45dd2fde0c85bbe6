"""Point-by-point reference for the grid evaluator: one bias point at a time.

These are the per-point weighting, histogram and estimator bodies the package
ran before it evaluated the bias grid in array blocks, kept verbatim (with the
statespace helpers they called) so the tests can demand that the block
evaluator reproduces them bit for bit.  :func:`run` is the old per-point loop
of ``runner._run``, and :func:`random_circuits` the circuit-by-circuit draw of
``validate``'s sigma2 = sigma6 check.  :func:`parse_table` and :func:`to_grid`
are the value-by-value table reader and grid fill, and
:func:`relative_entropy_rows` the row divergence that took logarithms on every
row.  Nothing in the package imports this module.
"""

from __future__ import annotations

import math
import warnings
from pathlib import Path

import numpy as np

from demon_ep.dataio import _CLAMP_TOL, ConditionalTable
from demon_ep.entropy import EpResult
from demon_ep.protocol import SigmaHistogram, TrajectoryTable
from demon_ep.statespace import DEFAULT_DIMS, GibbsSpec, _dot_rows, _over_supports


# ---------------------------------------------------------------------------
# statespace


def gibbs_distribution(beta_omega: float, levels: int) -> np.ndarray:
    n = np.arange(levels, dtype=float)
    weights = np.exp(-beta_omega * n)
    return weights / weights.sum()


def extended_gibbs(beta_omega: float, levels_norm: int, levels_total: int) -> np.ndarray:
    n = np.arange(levels_total, dtype=float)
    weights = np.exp(-beta_omega * n)
    z_norm = weights[:levels_norm].sum()
    return weights / z_norm


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


def relative_entropy_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    p, q = p.reshape(len(p), -1), q.reshape(len(q), -1)

    def divergence(rows, columns):
        pm, qm = p[rows].take(columns, axis=1), q[rows].take(columns, axis=1)
        logs = np.log(pm / qm)
        total = _dot_rows(pm, logs)
        if not np.isfinite(total).all():  # as a q <= 0 always makes it
            # a ratio overflowed to inf or underflowed to 0: take ln p - ln q there
            lost = ~np.isfinite(total)
            logs = logs[lost]
            gone = np.isinf(logs)
            logs[gone] = np.log(pm[lost][gone]) - np.log(qm[lost][gone])
            total[lost] = _dot_rows(pm[lost], logs)
            total[(qm <= 0.0).any(axis=1)] = math.inf
        return total

    with np.errstate(all="ignore"):
        return _over_supports(p, divergence)


# ---------------------------------------------------------------------------
# dataio


def to_grid(table: ConditionalTable, dims) -> np.ndarray:
    what = table.orientation.split("-")[0]
    full = dims.dim_cavity_full
    rows = dims.dim_cavity_init if what == "forward" else full
    for m_q, k, m_c in table.col_labels:
        if not (0 <= m_q < 2 and 0 <= k < 2 and 0 <= m_c < full):
            raise ValueError(f"{what} column label ({m_q}, {k}, {m_c}) out of range")
    out = np.zeros((2, rows, 2, 2, full))
    for i, (n_q, n_c) in enumerate(table.row_labels):
        if not (0 <= n_q < 2 and 0 <= n_c < rows):
            raise ValueError(f"{what} row label ({n_q}, {n_c}) out of range")
        for j, col in enumerate(table.col_labels):
            out[(n_q, n_c) + col] = table.values[i, j]
    return out


def _parse_label(token: str) -> tuple:
    body = token.strip()
    if not (body.startswith("(") and body.endswith(")")):
        raise ValueError(f"malformed state label {token!r}")
    try:
        return tuple(int(part) for part in body[1:-1].split(","))
    except ValueError:
        raise ValueError(f"malformed state label {token!r}") from None


def _clamp(value: float, where: str) -> float:
    if not math.isfinite(value):
        raise ValueError(f"non-finite probability {value!r} at {where}")
    if 0.0 <= value <= 1.0:
        return value
    excess = max(-value, value - 1.0)
    if excess > _CLAMP_TOL:
        raise ValueError(f"probability {value!r} at {where} outside [0, 1]")
    warnings.warn(f"clamping probability {value!r} at {where}", stacklevel=3)
    return min(1.0, max(0.0, value))


def parse_table(source, orientation: str) -> ConditionalTable:
    if hasattr(source, "read"):
        text = source.read()
    else:
        text = Path(source).read_text()
    rows: list[list[str]] = []
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        rows.append(stripped.split())
    if len(rows) < 2:
        raise ValueError("table needs a header line and at least one data row")
    header = rows[0]
    data = rows[1:]
    n_values = len(data[0]) - 1
    if n_values < 1:
        raise ValueError("data rows need a label plus at least one value")
    if len(header) == n_values + 1:
        header = header[1:]  # drop corner token
    if len(header) != n_values:
        raise ValueError(
            f"header has {len(header)} column labels but rows carry {n_values} values"
        )
    col_labels = tuple(_parse_label(tok) for tok in header)
    row_labels = []
    values = np.zeros((len(data), n_values))
    for i, row in enumerate(data):
        if len(row) != n_values + 1:
            raise ValueError(f"row {i + 1} has {len(row) - 1} values, expected {n_values}")
        label = _parse_label(row[0])
        row_labels.append(label)
        for j, tok in enumerate(row[1:]):
            try:
                raw = float(tok)
            except ValueError:
                raise ValueError(f"bad number {tok!r} at row {label}") from None
            values[i, j] = _clamp(raw, f"row {label}, column {col_labels[j]}")
    return ConditionalTable(tuple(row_labels), col_labels, values, orientation)


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


def support_mismatch(fwd, bwd) -> tuple[tuple[int, int, int, int, int], ...]:
    bad = np.argwhere((fwd.probs > 0.0) & (bwd.probs <= 0.0))
    return tuple(tuple(map(int, idx)) for idx in bad)


def _format_trajectory(traj: tuple[int, int, int, int, int]) -> str:
    n_q, k, n_c, m_q, m_c = traj
    return f"(n_Q={n_q},k={k},n_C={n_c},m_Q={m_q},m_C={m_c})"


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


# ---------------------------------------------------------------------------
# validate


def random_circuits(rng: np.random.Generator, count: int):
    """Forward conditionals, beta_C and dbeta of ``count`` random circuits, one by one."""
    dims = DEFAULT_DIMS
    full, init = dims.dim_cavity_full, dims.dim_cavity_init
    size = 2 * 2 * full
    cond = np.empty((count, 2, 2, full, 2, init))
    beta_cavity = np.empty(count)
    dbeta = np.empty(count)
    for r in range(count):
        mats = []
        for _ in range(3):
            m = rng.random((size, size))
            m /= m.sum(axis=0, keepdims=True)
            mats.append(m)
        chain = (mats[2] @ mats[1] @ mats[0]).reshape(2, 2, full, 2, 2, full)
        cond[r] = chain[:, :, :, :, 1, :init]
        beta_cavity[r] = rng.uniform(0.2, 3.0)
        dbeta[r] = rng.uniform(-6.0, 6.0)
    return cond, beta_cavity, dbeta
