"""Self-contained invariant suite behind ``demon-ep validate``.

The suite re-derives every structural guarantee the package relies on —
normalization, conservation, channel stochasticity, the oracle cross-check,
estimator equivalence, fluctuation identities, serialization round-trips —
so a single command can certify an installation end to end.  Each check
returns (ok, detail), and :func:`run_all` gives one PASS/FAIL line per check,
which the CLI writes to ``out`` or stdout.  A numeric check declares its
deviations, bound and detail, and one rule (:func:`_bounded`) decides: a NaN
fails, as does -inf for a lowest value.  A check that raises fails.

:data:`CHECKS` is the one place each invariant is derived: the acceptance
tests look checks up there by label instead of restating them.  Checks that
need trajectory tables weight a kernel on the sweep's one weighting path
(:func:`~demon_ep.protocol.weigh_rows`) and read the arrays of a block
whose tables are checked once (:func:`~demon_ep.protocol.check_rows`): a
check of estimators or histograms reads a block of ``runner._run_block``,
the commands' own evaluator, and one of tables a coarse grid
(:func:`_coarse_rows`, binning no histogram).  A block's histograms are
binned from its checked tables and not checked again.  Only the
serialization check takes a row as a table pair, the one it serializes.

The certified configurations are module constants, built once on import:
:data:`IDEAL`, and :data:`PHYSICALS`, the full physical model followed by
each single error alone.  One :func:`run_all` builds each one's kernel once
(nine), and with it the gate chain that the oracle checks evolve, a whole
coarse grid in one stacked pass (:func:`~demon_ep.protocol.oracle_rows`),
and each one's coarse grid once (:func:`_coarse`); every check of the run
shares them, and they are dropped when the run ends.  A check called on its
own keeps the kernels and grids it builds until the next run.
The sigma2 = sigma6 check draws each block of random circuits in one call,
into one buffer that lives as long as the check.
"""

from __future__ import annotations

import functools
import io
import math
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import channels, dataio, entropy, protocol, runner, statespace

IDEAL = dataio.RunConfig()
PHYSICAL = dataio.RunConfig(mode="physical")
SINGLE_ERRORS = tuple(channels.ERROR_CHANNELS)
#: the full physical model, then each single error alone in SINGLE_ERRORS order
PHYSICALS = (PHYSICAL, *(replace(PHYSICAL, single_error=name) for name in SINGLE_ERRORS))
#: the physical grid at step 0.5; the single error of a run lives in its kernel
HALF_STEP = replace(PHYSICAL, dbeta_step=0.5)
GRID_COARSE = (-6.0, -3.0, -1.0, 0.0, 1.0, 3.0, 6.0)
CIRCUITS = 1000  # random circuits of the sigma2 = sigma6 check
CIRCUIT_SEED = 20240817
#: circuits drawn and evaluated together, not runner.BLOCK_POINTS: a circuit
#: row holds its 1,202 draws and its own kernel, about 8x a sweep row, and
#: blocks of 128 raised the check's peak resident size by 1.75 MB.
CIRCUIT_BLOCK = 64


@functools.cache
def _kernel(config: dataio.RunConfig) -> protocol.ProtocolKernel:
    """The kernel of ``config``, built once per :func:`run_all` (cleared as it starts and ends)."""
    return runner.build_kernel(config)


def _bounded(bound: float, detail: str, lowest: bool = False):
    """The check of a generator whose every yield is a deviation (number or
    array), or a tuple of them, one per field of ``detail``.  Each field's worst,
    the largest (the lowest if ``lowest``) with a NaN propagating, must be below
    ``bound`` (at or above it if ``lowest``); ``detail`` formats the worsts."""
    reduce, start = (np.min, math.inf) if lowest else (np.max, -math.inf)

    def declare(deviations):
        @functools.wraps(deviations)
        def check() -> tuple[bool, str]:
            fields = zip(*(v if isinstance(v, tuple) else (v,) for v in deviations()))
            worst = np.array([reduce(np.concatenate([np.ravel(v) for v in field]), initial=start)
                              for field in fields])
            ok = np.all(worst >= bound if lowest else worst < bound)
            return bool(ok), detail.format(*map(float, worst))
        return check
    return declare


def _coarse_rows(kernel: protocol.ProtocolKernel, grid=GRID_COARSE) -> protocol.TableRows:
    """``grid`` weighted from ``kernel`` as one block, its tables checked once."""
    rows = protocol.weigh_rows(kernel, IDEAL.beta_cavity, np.array(grid, dtype=float))
    protocol.check_rows(rows)
    return rows


@functools.cache
def _coarse(config: dataio.RunConfig) -> protocol.TableRows:
    """The coarse grid of ``config``'s kernel, weighed once per :func:`run_all`, as
    :func:`_kernel` is built: the checks that read it leave its arrays as they are."""
    return _coarse_rows(_kernel(config))


@_bounded(1e-9, "worst deviation {:.2e}")
def check_thermal_distributions():
    for beta in (0.1, 0.5, 0.874146, 2.0, 5.0):
        for levels in (2, 4, 5, 8):
            p = statespace.gibbs_distribution(beta, levels)
            z = np.exp(-beta * np.arange(levels)).sum()
            mean_e = float(np.dot(np.arange(levels), p))
            yield abs(statespace.shannon_entropy(p) - (beta * mean_e + math.log(z)))
            yield abs(p.sum() - 1.0)
    yield abs(statespace.gibbs_distribution(60.0, 4)[0] - 1.0)
    yield np.abs(statespace.gibbs_distribution(1e-12, 4) - 0.25)
    bose = statespace.gibbs_distribution(0.9, 400)
    yield abs(statespace.mean_occupation(bose) - 1.0 / (math.exp(0.9) - 1.0))


@_bounded(1e-12, "worst deviation {:.2e}")
def check_information_measures():
    rng = np.random.default_rng(7)
    pairs = rng.random((200, 2, 6))  # p, then q, of each pair
    pairs /= pairs.sum(axis=2, keepdims=True)
    p, q = pairs[:, 0], pairs[:, 1]
    kl = statespace.relative_entropy_rows(p, q)
    negative = np.flatnonzero(kl < -1e-12)
    if negative.size:
        raise ValueError(f"negative divergence {float(kl[negative[0]])}")
    yield np.abs(statespace.relative_entropy_rows(p, p))
    gap = rng.random(6)
    gap /= gap.sum()
    masked = gap.copy()
    masked[0] = 0.0
    masked /= masked.sum()
    if not math.isinf(statespace.relative_entropy(gap, masked)):
        raise ValueError("support mismatch did not diverge")
    for _ in range(50):
        joint = rng.random((2, 2, 5))
        joint /= joint.sum()
        jd = statespace.JointDistribution(statespace.DEFAULT_DIMS, joint)
        info_a = statespace.mutual_information(jd, ("qubit", "cavity"))
        info_b = statespace.mutual_information(jd, "demon")
        yield abs(info_a - info_b)
        if info_a < -1e-12:
            raise ValueError("negative mutual information")
        for k in range(2):
            cond_dist, prob = statespace.condition(jd, {"demon": k})
            yield np.abs(cond_dist * prob - joint[:, k, :])


def check_channel_stochasticity() -> tuple[bool, str]:
    count = 0
    for eps in (0.0, 0.03, 0.11, 0.5, 1.0):
        for encoding in channels.ENCODINGS.values():
            channels.readout_channel(eps, encoding=encoding)
            channels.feedback_channel(eps, encoding=encoding)
            count += 2
    model = channels.ErrorModel()
    channels.detection_channel(model.confusion)
    channels.relaxation_channel(
        channels.ErrorModel(relax_atom_prob=0.2, relax_cavity_prob=0.05)
    )
    count += 2
    # constructors validate column sums on build; arriving here means all passed
    return True, f"{count} channels column-stochastic"


def check_channel_reversal() -> tuple[bool, str]:
    for mode, encoding in channels.ENCODINGS.items():
        for build in (channels.readout_channel, channels.feedback_channel):
            chan = build(0.0, encoding=encoding)
            rev = channels.time_reverse(chan)
            round_trip = channels.compose(rev, chan)
            if not np.allclose(round_trip.matrix, np.eye(chan.dim), atol=1e-12):
                return False, f"{build.__name__}({mode}) reversal is not an inverse"
    try:
        channels.time_reverse(channels.readout_channel(0.11))
    except ValueError:
        return True, "permutations invert, noisy maps rejected"
    return False, "noisy channel accepted for reversal"


def check_error_model() -> tuple[bool, str]:
    base = channels.ErrorModel()
    if not channels.ErrorModel.ideal().is_ideal:
        return False, "ideal() not recognized as ideal"
    for name in SINGLE_ERRORS:
        single = channels.ErrorModel.single(name, base=base)
        # the error-free value of each channel is the one ErrorModel.is_ideal asks for
        values = [getattr(single, field) for field in channels.ERROR_CHANNELS.values()]
        active = sum(not np.array_equal(v, channels._error_free(v)) for v in values)
        if active > 1:
            return False, f"single({name!r}) left {active} channels active"
    conf = base.confusion
    expected = ((0.98, 0.02, 0.0), (0.05, 0.93, 0.02), (0.01, 0.05, 0.94))
    for col, want in enumerate(expected):
        if not np.allclose(conf[:, col], want, atol=1e-12):
            return False, f"confusion column {col} is {conf[:, col]}"
    return True, "defaults and single-error isolation verified"


def _ideal_support(dims: statespace.SystemDims) -> np.ndarray:
    """An ideal forward row's support: k = n_Q, m_Q = 0, n_C -> n_C + n_Q."""
    init, full = dims.dim_cavity_init, dims.dim_cavity_full
    support = np.zeros((2, 2, init, 2, full), dtype=bool)
    support[0, 0, :, 0] = np.eye(init, full, dtype=bool)
    support[1, 1, :, 0] = np.eye(init, full, k=1, dtype=bool)
    return support


@_bounded(1e-12, "worst deviation {:.2e}")
def check_forward_tables():
    ideal = _coarse(IDEAL).forward
    # readout is deterministic: no joint (n_Q, k) weight off k = n_Q
    yield ideal[:, [0, 1], [1, 0]].sum(axis=(2, 3, 4))
    wrong = ((ideal > 0) != _ideal_support(_kernel(IDEAL).dims)).any(axis=protocol._TABLE_AXES)
    if wrong.any():
        raise ValueError(f"ideal support unexpected at dbeta={GRID_COARSE[np.argmax(wrong)]:g}")
    phys = _coarse(PHYSICAL).forward
    yield np.abs(phys.sum(axis=protocol._TABLE_AXES) - 1.0)
    yield phys[:, :, 0, :, 1].sum(axis=(1, 2, 3))  # (m_Q, k) = (1, 0)


@_bounded(1e-12, "worst conservation error {:.2e}")
def check_backward_conservation():
    for config in (IDEAL, PHYSICAL):
        rows = _coarse(config)
        labeled = rows.backward.sum(axis=protocol._TABLE_AXES)
        yield np.abs(labeled + rows.unlabeled - rows.prior_mass)


@_bounded(1e-12, "worst marginal mismatch {:.2e}")
def check_oracle_consistency():
    for config in (IDEAL, *PHYSICALS):
        rows = _coarse(config)
        marginal = protocol.final_state_rows(rows.forward)
        (oracle,) = protocol.oracle_rows(_kernel(config).chain, rows.beta_qubit, rows.beta_cavity,
                                         ("final",))
        yield np.abs(marginal - oracle)


@_bounded(1e-9, "worst bin residual {:.2e}, worst average residual {:.2e}")
def check_fluctuation_relation():
    grid = IDEAL.grid()  # 49 points: one block
    _, hists, _ = runner._run_block(_kernel(IDEAL), IDEAL, grid)
    bins = np.arange(hists.sigma.shape[1]) < hists.size[:, None]  # each row's own bins
    empty = bins & (hists.p_backward <= 0.0)
    if empty.any():
        raise ValueError(f"empty backward bin at dbeta={grid[empty.any(axis=1)][0]:g}")
    with np.errstate(all="ignore"):  # the padding bins are 0 / 0
        residual = np.abs(np.log(hists.p_forward / hists.p_backward) - hists.sigma)
    yield residual[bins], np.abs(entropy.jarzynski_rows(hists, "reversed") - 1.0)


@_bounded(1e-9, "worst six-way spread {:.2e}")
def check_estimator_equivalence():
    values = runner._run(_kernel(IDEAL), IDEAL).estimators
    yield values.max(axis=0) - values.min(axis=0)


def _random_circuits(dims: statespace.SystemDims, draws: np.ndarray) -> tuple[np.ndarray, ...]:
    """Forward conditionals, beta_C and dbeta of the random circuits of ``draws``.

    A circuit is a random gate chain (readout, feedback and detection
    stand-ins) on the (qubit, memory, photon number) register of ``dims``, at
    a random cavity temperature and bias; its conditionals are the chain's
    columns from the starts (n_Q, n_D=1, n_C).  Row ``i`` of ``draws`` holds
    circuit ``i``'s values in the generator order of a circuit-by-circuit
    loop: its three gate matrices, then ``uniform(0.2, 3.0)`` and
    ``uniform(-6, 6)``, each ``low + (high - low) * u`` of one double ``u``.
    The gate values are normalised in place; nothing returned is a view of
    ``draws``.
    """
    count = len(draws)
    full, init = dims.dim_cavity_full, dims.dim_cavity_init
    gates = draws[:, :-2].reshape(count, 3, 2 * 2 * full, 2 * 2 * full)
    gates /= gates.sum(axis=2, keepdims=True)
    chain = gates[:, 2] @ gates[:, 1] @ gates[:, 0]
    cond = np.ascontiguousarray(chain.reshape(count, 2, 2, full, 2, 2, full)[..., 1, :init])
    beta_cavity = 0.2 + (3.0 - 0.2) * draws[:, -2]
    dbeta = -6.0 + (6.0 - -6.0) * draws[:, -1]
    return cond, beta_cavity, dbeta


def _circuit_blocks(dims: statespace.SystemDims):
    """The random circuits of the sigma2 = sigma6 check on ``dims``, a block at a time.

    Every block is drawn into one buffer, which lives as long as the check.
    """
    rng = np.random.default_rng(CIRCUIT_SEED)
    levels = 2 * 2 * dims.dim_cavity_full
    buffer = np.empty((CIRCUIT_BLOCK, 3 * levels * levels + 2))
    for start in range(0, CIRCUITS, CIRCUIT_BLOCK):
        draws = buffer[:min(CIRCUIT_BLOCK, CIRCUITS - start)]
        rng.random(out=draws)
        yield _random_circuits(dims, draws)


@_bounded(1e-12, f"worst |sigma2 - sigma6| {{:.2e}} over {CIRCUITS} random circuits")
def check_sigma2_sigma6_identity():
    dims = statespace.DEFAULT_DIMS
    sigma2, sigma6 = entropy.ESTIMATORS["sigma2"].rows, entropy.ESTIMATORS["sigma6"].rows
    for cond, beta_cavity, dbeta in _circuit_blocks(dims):
        rows = protocol.weigh_rows(protocol.ProtocolKernel(dims, cond, None), beta_cavity, dbeta)
        protocol.check_rows(rows)
        data = entropy.EstimatorInputs(rows)
        yield np.abs(sigma2(data) - sigma6(data))


@_bounded(-1e-9, "lowest finite estimator {:.3e}", lowest=True)
def check_second_law():
    # +inf is a support mismatch, flagged and excluded; a NaN or -inf fails the check
    for config in PHYSICALS:
        values = runner._run(_kernel(config), HALF_STEP).estimators
        yield values[values != math.inf]


@_bounded(1e-9, "worst ideal-readout residual {:.2e}")
def check_feedback_balance():
    chain = _kernel(IDEAL).chain
    points = [statespace.GibbsSpec.from_dbeta(IDEAL.beta_cavity, dbeta) for dbeta in GRID_COARSE]
    beta_qubit = np.array([gibbs.beta_qubit for gibbs in points])
    pre, post = protocol.oracle_rows(
        chain, beta_qubit, IDEAL.beta_cavity, ("pre_feedback", "post_feedback")
    )
    for r, gibbs in enumerate(points):
        states = (statespace.JointDistribution(chain.dims, joint[r]) for joint in (pre, post))
        yield abs(entropy.feedback_balance_residual(*states, gibbs))


# only 0 is below the least positive double: the round trip must be exact
@_bounded(math.ulp(0.0), "worst round-trip error {:.2e} (exact required)")
def check_serialization_roundtrip():
    rows = protocol.weigh_rows(_kernel(PHYSICAL), IDEAL.beta_cavity, np.array([0.75]))
    # the one row taken as a table pair: it is checked as it is built
    conds = [dataio.conditional_from_table(table) for table in rows.tables(0)]
    for cond, orientation in zip(conds, ("forward-rows-initial", "backward-rows-final")):
        text = dataio.serialize_table(cond)
        reparsed = dataio.parse_table(io.StringIO(text), orientation)
        if reparsed.row_labels != cond.row_labels or reparsed.col_labels != cond.col_labels:
            raise ValueError("labels changed in round trip")
        yield np.abs(reparsed.values - cond.values)
        if dataio.serialize_table(reparsed) != text:
            raise ValueError("serialization not idempotent")
    again = _coarse_rows(runner.measured_kernel(*conds), (0.75,))
    for name in ("forward", "backward", "unlabeled"):
        yield np.abs(getattr(again, name) - getattr(rows, name))


def check_config_io() -> tuple[bool, str]:
    text = "\n".join(
        [
            "# sample configuration",
            "temperature_kelvin = 2.8",
            "frequency_ghz = 51.0",
            "mode = physical",
            "single_error = eps_read",
            "dbeta_start = -2",
            "dbeta_stop = 2",
            "dbeta_step = 0.5",
            "eps_read = 0.2",
            "eta_e_g = 0.07",
            "cavity_prep_1 = 0:0.1 1:0.8 2:0.1",
            "floor = none",
            "idealized_backward = false",
        ]
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.cfg"
        path.write_text(text)
        config = dataio.load_config(path)
        if config.mode != "physical" or config.single_error != "eps_read":
            return False, "parsed values wrong"
        model = config.build_error_model()
        if model.eps_read != 0.2 or model.eps_prep != 0.0:
            return False, "single-error override not applied"
        full_model = dataio.RunConfig(mode="physical", eta_e_g=0.07).build_error_model()
        if abs(full_model.confusion[0, 1] - 0.07) > 1e-15 or abs(
            full_model.confusion[1, 1] - 0.91
        ) > 1e-12:
            return False, "confusion override did not renormalize diagonal"
        bad = Path(tmp) / "bad.cfg"
        bad.write_text("unknown_key = 1\n")
        try:
            dataio.load_config(bad)
        except ValueError:
            return True, "round trip, overrides, and unknown-key rejection verified"
        return False, "unknown key accepted"


def check_closed_form_anchors() -> tuple[bool, str]:
    beta = dataio.kelvin_to_beta_omega(2.8, 51.0)
    if abs(beta - 0.874148) > 1e-5:
        return False, f"beta*omega = {beta}"
    # sigma1(+6) has a closed form; at -6 the qubit is hot and every estimator is negligible
    _, _, (pos, neg) = runner._run_block(_kernel(IDEAL), IDEAL, np.array([6.0, -6.0]))
    gibbs6 = statespace.GibbsSpec.from_dbeta(IDEAL.beta_cavity, 6.0)
    p_excited = 1.0 / (1.0 + math.exp(gibbs6.beta_qubit))
    closed = gibbs6.delta_beta * p_excited + statespace.shannon_entropy(
        np.array([1.0 - p_excited, p_excited])
    )
    s1_pos, asym = pos.sigma1, entropy.high_bias_asymptote(gibbs6)
    two_atom = channels.two_atom_probability(0.22, 0.5)
    checks = [
        abs(s1_pos - closed) < 1e-9,
        abs(closed - 5.2465) < 5e-5,
        abs(asym - 5.2449) < 1e-4,
        abs(s1_pos - asym) / asym < 0.02,
        all(0.0 <= getattr(neg, name) < 0.01 for name in entropy.ESTIMATORS),
        abs(two_atom - 0.0991) < 1e-4,
    ]
    detail = (
        f"sigma1(+6)={s1_pos:.6f} (closed {closed:.6f}), "
        f"asymptote {asym:.6f}, sigma1(-6)={neg.sigma1:.6f}, two-atom {two_atom:.5f}"
    )
    return all(checks), detail


CHECKS = (
    ("thermal distributions", check_thermal_distributions),
    ("information measures", check_information_measures),
    ("channel stochasticity", check_channel_stochasticity),
    ("channel reversal", check_channel_reversal),
    ("error model", check_error_model),
    ("forward tables", check_forward_tables),
    ("backward conservation", check_backward_conservation),
    ("oracle consistency", check_oracle_consistency),
    ("fluctuation relation", check_fluctuation_relation),
    ("estimator equivalence", check_estimator_equivalence),
    ("sigma2 = sigma6 identity", check_sigma2_sigma6_identity),
    ("second law", check_second_law),
    ("feedback balance", check_feedback_balance),
    ("serialization round trip", check_serialization_roundtrip),
    ("config io", check_config_io),
    ("closed-form anchors", check_closed_form_anchors),
)


def run_all() -> tuple[bool, str]:
    """Run every check; return whether all passed and one PASS/FAIL line each.

    The checks share the kernels (and gate chains) and coarse grids of this
    run: each configuration's are built once, and all are dropped when the run ends.
    """
    _kernel.cache_clear()
    _coarse.cache_clear()
    all_ok, lines = True, []
    try:
        for name, fn in CHECKS:
            try:
                ok, detail = fn()
            except Exception as exc:  # a crashed check is a failed check
                ok, detail = False, f"raised {type(exc).__name__}: {exc}"
            all_ok &= ok
            lines.append(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}\n")
    finally:
        _kernel.cache_clear()
        _coarse.cache_clear()
    return all_ok, "".join(lines)
