"""Drivers that turn a :class:`~demon_ep.dataio.RunConfig` into results.

The conditional dynamics of both protocol directions are independent of the
bath temperatures, so a run factors into "build the kernel once" plus a
cheap thermal re-weighting per bias point.  A sweep simulates its kernel;
an analysis reads it from measured conditional tables; both then evaluate
the bias grid in blocks of :data:`BLOCK_POINTS` points, each block as
stacked arrays, in one process.  The kernel and its weighting live in
:mod:`demon_ep.protocol`.
"""

from __future__ import annotations

import numpy as np

from .channels import ErrorModel, two_atom_probability
from .dataio import ConditionalTable, RunConfig, parse_table
from .entropy import (
    ESTIMATORS,
    EpColumns,
    evaluate,
    evaluate_rows,
    feedback_balance_residual,
    high_bias_asymptote,
    jarzynski_average,
)
from .protocol import (
    HistogramRows,
    ProtocolKernel,
    TableRows,
    branch_probability,
    check_rows,
    histogram_rows,
    measured_kernel,
    oracle_states,
    point_tables,
    sigma_grid,
    sigma_histogram,
    simulated_kernel,
    weigh_rows,
)
from .statespace import DEFAULT_DIMS, GibbsSpec, SystemDims

__all__ = [
    "build_kernel",
    "run_analysis",
    "run_sweep",
    "simulate_report",
]


def build_kernel(config: RunConfig, dims: SystemDims = DEFAULT_DIMS) -> ProtocolKernel:
    """The configured model's kernel: one gate chain for both directions, or a
    second, error-free one for the backward run with ``idealized_backward``."""
    back_model = ErrorModel.ideal() if config.idealized_backward else None
    return simulated_kernel(config.build_error_model(), dims, config.mode, back_model)


#: bias points weighted, binned and evaluated together as stacked arrays.
#: Larger blocks run little faster but hold more memory: a whole 1,200-point
#: physical grid in one block raised the peak resident size by 24 MB, in
#: blocks of 64 by 0.8 MB.
BLOCK_POINTS = 64


def _run(kernel: ProtocolKernel, config: RunConfig) -> EpColumns:
    """Estimators of a kernel at every point of the configured bias grid."""
    grid = config.grid()
    blocks = [_run_block(kernel, config, grid[start:start + BLOCK_POINTS])
              for start in range(0, grid.size, BLOCK_POINTS)]
    return EpColumns(np.concatenate([block.numbers for block in blocks], axis=1),
                     [flags for block in blocks for flags in block.flags])


def checked_rows(
    kernel: ProtocolKernel, config: RunConfig, dbeta: np.ndarray
) -> tuple[TableRows, HistogramRows | None]:
    """Tables and sigma histograms of a kernel at the points ``dbeta``, checked
    row after row as :func:`point_tables` and :func:`sigma_histogram` would."""
    with np.errstate(all="ignore"):  # a point this spoils fails its checks
        rows = weigh_rows(
            kernel.forward_cond, kernel.backward_cond, kernel.dims, config.beta_cavity, dbeta
        )
        hist = None if rows.backward is None else histogram_rows(rows, config.sigma_tol)
    check_rows(rows, hist)
    return rows, hist


def _run_block(kernel: ProtocolKernel, config: RunConfig, dbeta: np.ndarray) -> EpColumns:
    rows, hist = checked_rows(kernel, config, dbeta)
    return evaluate_rows(rows, hist, floor=config.floor, heat_from_atom=config.heat_from_atom)


def run_sweep(config: RunConfig, dims: SystemDims = DEFAULT_DIMS) -> EpColumns:
    """All six estimators on the configured bias grid, as columns in grid order."""
    return _run(build_kernel(config, dims), config)


def run_analysis(
    config: RunConfig,
    forward: ConditionalTable | str,
    backward: ConditionalTable | str | None = None,
    dims: SystemDims = DEFAULT_DIMS,
) -> EpColumns:
    """Estimators over the bias grid from measured conditional tables, as columns.

    Accepts parsed tables or paths.  Without a backward table only the
    forward-protocol estimators are meaningful; the remaining fields are NaN
    (and the CSV writer's forward-only layout omits them).
    """
    if not isinstance(forward, ConditionalTable):
        forward = parse_table(forward, "forward-rows-initial")
    if backward is not None and not isinstance(backward, ConditionalTable):
        backward = parse_table(backward, "backward-rows-final")
    return _run(measured_kernel(forward, backward, dims), config)


def simulate_report(
    config: RunConfig, dbeta: float, dims: SystemDims = DEFAULT_DIMS
) -> str:
    """Full diagnostic text for a single bias point."""
    kernel = build_kernel(config, dims)
    gibbs = GibbsSpec.from_dbeta(config.beta_cavity, dbeta)
    fwd, bwd = point_tables(kernel, gibbs)
    pk = branch_probability(fwd)
    sig = sigma_grid(gibbs, pk, dims)
    hist = sigma_histogram(fwd, bwd, tol=config.sigma_tol)
    result = evaluate(fwd, bwd, hist, floor=config.floor,
                      heat_from_atom=config.heat_from_atom)
    # the oracle runs the kernel's own forward chain, one pass for both states
    pre, post = oracle_states(kernel.chain, gibbs, ("pre_feedback", "post_feedback"))
    residual = feedback_balance_residual(pre, post, gibbs)
    model = config.build_error_model()
    two_atom = two_atom_probability(model.nbar_atoms, model.detect_eff)

    def fmt(x: float) -> str:
        return format(x, ".12g")

    lines = [
        f"mode {config.mode}   dbeta_tilde {fmt(dbeta)}",
        f"beta_cavity*omega {fmt(gibbs.beta_cavity)}   beta_qubit*omega {fmt(gibbs.beta_qubit)}",
        f"p(k) = [{fmt(pk[0])}, {fmt(pk[1])}]   mean information {fmt(result.mean_info)} nat",
        "",
        "forward trajectories (n_Q,k,n_C,m_Q,m_C): probability, sigma",
    ]
    possible = fwd.probs > 0.0
    for (n_q, k, n_c, m_q, m_c), p, s in zip(
        np.argwhere(possible).tolist(), fwd.probs[possible].tolist(), sig[possible].tolist()
    ):
        lines.append(f"  ({n_q},{k},{n_c},{m_q},{m_c})  p={fmt(p)}  sigma={fmt(s)}")
    lines += [
        "",
        "backward trajectories (same labels): weight",
    ]
    reached = bwd.probs > 0.0
    for (n_q, k, n_c, m_q, m_c), p in zip(
        np.argwhere(reached).tolist(), bwd.probs[reached].tolist()
    ):
        lines.append(f"  ({n_q},{k},{n_c},{m_q},{m_c})  p~={fmt(p)}")
    lines += [
        f"backward prior mass {fmt(bwd.prior_mass)}   unlabeled {fmt(bwd.unlabeled_mass)}",
    ]
    if bwd.demon_reset_prob is not None:
        lines.append(f"memory reset probability {fmt(bwd.demon_reset_prob)}")
    lines += [
        "",
        "sigma histogram: sigma, p_fwd, p_bwd",
    ]
    for s, p_f, p_b in zip(*(a.tolist() for a in (hist.sigma, hist.p_forward, hist.p_backward))):
        lines.append(f"  {fmt(s)}  {fmt(p_f)}  {fmt(p_b)}")
    lines += [
        "",
        *(f"{name} {fmt(getattr(result, name))}" for name in ESTIMATORS),
        f"cavity heat {fmt(result.heat_cavity)} (units of omega)",
        f"high-bias asymptote {fmt(high_bias_asymptote(gibbs))}",
        f"feedback balance residual {fmt(residual)}",
        f"fluctuation average (reversed ensemble) {fmt(jarzynski_average(hist, 'reversed'))}",
        f"fluctuation average (forward ensemble)  {fmt(jarzynski_average(hist, 'forward'))}",
        f"two-atom event probability {fmt(two_atom)} (diagnostic)",
    ]
    if result.flags:
        lines.append("flags: " + "; ".join(result.flags))
    return "\n".join(lines) + "\n"
