"""Drivers that turn a :class:`~demon_ep.dataio.RunConfig` into results.

The conditional dynamics of both protocol directions are independent of the
bath temperatures, so a run factors into "build the kernel once" plus a
cheap thermal re-weighting per bias point.  A sweep simulates its kernel; an
analysis reads it from measured conditional tables; both then evaluate the
bias grid in blocks of :data:`BLOCK_POINTS` points, each block as stacked
arrays.  Runs are serial: ``RunConfig.jobs`` is accepted and ignored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import ErrorModel, two_atom_probability
from .dataio import ConditionalTable, RunConfig, parse_table
from .entropy import (
    EpResult,
    evaluate,
    evaluate_rows,
    feedback_balance_residual,
    high_bias_asymptote,
    jarzynski_average,
)
from .protocol import (
    TrajectoryTable,
    backward_conditionals,
    backward_table,
    branch_probability,
    check_rows,
    forward_conditionals,
    forward_table,
    histogram_rows,
    oracle_full_state,
    sigma_grid,
    sigma_histogram,
    weigh_rows,
)
from .statespace import DEFAULT_DIMS, GibbsSpec, SystemDims

__all__ = [
    "ProtocolKernel",
    "build_kernel",
    "measured_kernel",
    "point_tables",
    "run_analysis",
    "run_sweep",
    "simulate_report",
]


@dataclass(frozen=True, eq=False)
class ProtocolKernel:
    """Bias-independent dynamics of one run: both conditional arrays.

    ``backward_cond`` is None for a forward-only analysis, and
    ``backward_reset`` is None when the kernel was read from measured tables.
    """

    dims: SystemDims
    forward_cond: np.ndarray
    backward_cond: np.ndarray | None
    backward_reset: np.ndarray | None = None


def build_kernel(config: RunConfig, dims: SystemDims = DEFAULT_DIMS) -> ProtocolKernel:
    model = config.build_error_model()
    fcond = forward_conditionals(model, dims, config.mode)
    back_model = ErrorModel.ideal() if config.idealized_backward else model
    bcond, reset = backward_conditionals(back_model, dims, config.mode)
    return ProtocolKernel(dims, fcond, bcond, reset)


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


def point_tables(
    kernel: ProtocolKernel, gibbs: GibbsSpec
) -> tuple[TrajectoryTable, TrajectoryTable | None]:
    """Thermally weighted forward/backward tables at one bias point."""
    fwd = forward_table(gibbs, dims=kernel.dims, conditionals=kernel.forward_cond)
    if kernel.backward_cond is None:
        return fwd, None
    bwd = backward_table(
        gibbs,
        dims=kernel.dims,
        forward_pk=branch_probability(fwd),
        conditionals=kernel.backward_cond,
        reset=kernel.backward_reset,
    )
    return fwd, bwd


#: bias points weighted, binned and evaluated together as stacked arrays.
#: Larger blocks run little faster but hold more memory: a whole 1,200-point
#: physical grid in one block raised the peak resident size by 28 MB, in
#: blocks of 64 by 1.4 MB.
BLOCK_POINTS = 64


def _run(kernel: ProtocolKernel, config: RunConfig) -> list[EpResult]:
    """Estimators of a kernel at every point of the configured bias grid."""
    grid = config.grid()
    results = []
    for start in range(0, grid.size, BLOCK_POINTS):
        results += _run_block(kernel, config, grid[start:start + BLOCK_POINTS])
    return results


def _run_block(kernel: ProtocolKernel, config: RunConfig, dbeta: np.ndarray) -> list[EpResult]:
    with np.errstate(all="ignore"):  # a point this spoils fails its checks
        rows = weigh_rows(
            kernel.forward_cond, kernel.backward_cond, kernel.dims, config.beta_cavity, dbeta
        )
        hist = None if rows.backward is None else histogram_rows(rows, config.sigma_tol)
    check_rows(rows, hist)
    return evaluate_rows(rows, hist, floor=config.floor, heat_from_atom=config.heat_from_atom)


def run_sweep(config: RunConfig, dims: SystemDims = DEFAULT_DIMS) -> list[EpResult]:
    """All six estimators on the configured bias grid, in grid order."""
    return _run(build_kernel(config, dims), config)


def run_analysis(
    config: RunConfig,
    forward: ConditionalTable | str,
    backward: ConditionalTable | str | None = None,
    dims: SystemDims = DEFAULT_DIMS,
) -> list[EpResult]:
    """Estimators over the bias grid from measured conditional tables.

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
    model = config.build_error_model()
    pre = oracle_full_state(gibbs, model, dims, config.mode, stage="pre_feedback")
    post = oracle_full_state(gibbs, model, dims, config.mode, stage="post_feedback")
    residual = feedback_balance_residual(pre, post, gibbs)
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
        f"sigma1 {fmt(result.sigma1)}",
        f"sigma2 {fmt(result.sigma2)}",
        f"sigma3 {fmt(result.sigma3)}",
        f"sigma4 {fmt(result.sigma4)}",
        f"sigma5 {fmt(result.sigma5)}",
        f"sigma6 {fmt(result.sigma6)}",
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
