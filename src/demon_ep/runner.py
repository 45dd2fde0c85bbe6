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
    evaluate_rows,
    feedback_balance_residual,
    high_bias_asymptote,
    jarzynski_rows,
)
from .protocol import (
    HistogramRows,
    ProtocolKernel,
    TableRows,
    check_rows,
    histogram_rows,
    measured_kernel,
    oracle_states,
    sigma_grid,
    simulated_kernel,
    weigh_rows,
)
# not called here: the benchmark (perfbench/tracing.py) traces both names on runner
from .protocol import point_tables, sigma_histogram  # noqa: F401
from .statespace import DEFAULT_DIMS, SystemDims

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


#: bias points weighted, checked, binned and evaluated together.  A physical
#: block costs about 0.37 ms however few its rows (one row: weigh 0.03, check
#: 0.01, histogram 0.06, estimators 0.17), 49 rows without a tie about 0.65 ms
#: (weigh 0.08, check 0.03, histogram 0.09, estimators 0.35) and 256 rows about 2.2 ms
#: (weigh 0.45, check 0.06, histogram 0.41, estimators 0.75), so a
#: 1,200-point sweep job pays that fixed cost 5 times, not 10.  A row whose
#: sigma classes tie is binned a second time, label by label: 13 rows of the
#: default 49-point physical grid do, and its block takes about 1.0 ms
#: (histogram 0.31-0.38).  Blocks of 256 fit in the memory blocks of 128
#: took: the block is weighed and reduced as flat rows, the histogram reads
#: the block's label arrays in place and the weighting writes the backward
#: ones once (BENCH_31.json, BENCH_32.json).
BLOCK_POINTS = 256


def _run(kernel: ProtocolKernel, config: RunConfig) -> EpColumns:
    """Estimators of a kernel at every point of the configured bias grid."""
    grid = config.grid()
    blocks = [_run_block(kernel, config, grid[start:start + BLOCK_POINTS])[2]
              for start in range(0, grid.size, BLOCK_POINTS)]
    return EpColumns(np.concatenate([block.numbers for block in blocks], axis=1),
                     [flags for block in blocks for flags in block.flags],
                     blocks[0].forward_only)


def _run_block(
    kernel: ProtocolKernel, config: RunConfig, dbeta: np.ndarray
) -> tuple[TableRows, HistogramRows | None, EpColumns]:
    """Tables, sigma histograms and estimators of a kernel at the points ``dbeta``:
    the tables are weighed and checked once, as :func:`point_tables` would, and
    then binned, as :func:`sigma_histogram` would.  A caller reads the returned
    arrays and builds no table of its own."""
    with np.errstate(all="ignore"):  # a point this spoils fails its checks
        rows = weigh_rows(kernel, config.beta_cavity, dbeta)
    check_rows(rows)
    hist = None if rows.backward is None else histogram_rows(rows, config.sigma_tol)
    return rows, hist, evaluate_rows(rows, hist, floor=config.floor,
                                     heat_from_atom=config.heat_from_atom)


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
    forward-protocol estimators are meaningful: the remaining fields are NaN,
    and the results are marked forward-only, so the CSV writer omits them.
    """
    if not isinstance(forward, ConditionalTable):
        forward = parse_table(forward, "forward-rows-initial")
    if backward is not None and not isinstance(backward, ConditionalTable):
        backward = parse_table(backward, "backward-rows-final")
    return _run(measured_kernel(forward, backward, dims), config)


def simulate_report(
    config: RunConfig, dbeta: float, dims: SystemDims = DEFAULT_DIMS
) -> str:
    """Full diagnostic text for a single bias point: row 0 of a one-point block."""
    config.check_bias(dbeta, "dbeta")
    kernel = build_kernel(config, dims)
    rows, hists, results = _run_block(kernel, config, np.array([dbeta], dtype=float))
    gibbs, result, pk = rows.gibbs(0), results[0], rows.pk[0]
    fwd, bwd, bins = rows.forward[0], rows.backward[0], hists.size[0]
    sig = sigma_grid(gibbs, pk, dims)
    # the oracle runs the kernel's own forward chain, one pass for both states
    pre, post = oracle_states(kernel.chain, gibbs, ("pre_feedback", "post_feedback"))
    residual = feedback_balance_residual(pre, post, gibbs)
    model = kernel.chain.model  # the configured model, as the mode runs it
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
    possible = fwd > 0.0
    for (n_q, k, n_c, m_q, m_c), p, s in zip(
        np.argwhere(possible).tolist(), fwd[possible].tolist(), sig[possible].tolist()
    ):
        lines.append(f"  ({n_q},{k},{n_c},{m_q},{m_c})  p={fmt(p)}  sigma={fmt(s)}")
    lines += ["", "backward trajectories (same labels): weight"]
    reached = bwd > 0.0
    for (n_q, k, n_c, m_q, m_c), p in zip(np.argwhere(reached).tolist(), bwd[reached].tolist()):
        lines.append(f"  ({n_q},{k},{n_c},{m_q},{m_c})  p~={fmt(p)}")
    lines += [
        f"backward prior mass {fmt(rows.prior_mass[0])}   unlabeled {fmt(rows.unlabeled[0])}",
        f"memory reset probability {fmt(rows.reset_prob[0])}",
        "",
        "sigma histogram: sigma, p_fwd, p_bwd",
    ]
    histogram = (hists.sigma[0, :bins], hists.p_forward[0, :bins], hists.p_backward[0, :bins])
    for s, p_f, p_b in zip(*(a.tolist() for a in histogram)):
        lines.append(f"  {fmt(s)}  {fmt(p_f)}  {fmt(p_b)}")
    lines += [
        "",
        *(f"{name} {fmt(getattr(result, name))}" for name in ESTIMATORS),
        f"cavity heat {fmt(result.heat_cavity)} (units of omega)",
        f"high-bias asymptote {fmt(high_bias_asymptote(gibbs))}",
        f"feedback balance residual {fmt(residual)}",
        f"fluctuation average (reversed ensemble) {fmt(jarzynski_rows(hists, 'reversed')[0])}",
        f"fluctuation average (forward ensemble)  {fmt(jarzynski_rows(hists, 'forward')[0])}",
        f"two-atom event probability {fmt(two_atom)} (diagnostic)",
    ]
    if result.flags:
        lines.append("flags: " + "; ".join(result.flags))
    return "\n".join(lines) + "\n"
