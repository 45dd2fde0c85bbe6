"""Self-contained invariant suite behind ``demon-ep validate``.

Each check returns (ok, detail); the CLI prints one PASS/FAIL line per check.
The suite re-derives every structural guarantee the package relies on —
normalization, conservation, channel stochasticity, the oracle cross-check,
estimator equivalence, fluctuation identities, serialization round-trips —
so a single command can certify an installation end to end.

:data:`CHECKS` is the one place each invariant is derived: the acceptance
tests look checks up there by label instead of restating them.  Checks that
need trajectory tables weight a kernel on the sweep's one weighting path
(:func:`~demon_ep.protocol.weigh_rows`): a check of many points or many
circuits runs on the stacked rows (checked by
:func:`~demon_ep.protocol.check_rows`), and one that reads tables takes each
row's pair (:func:`_points`).

One :func:`run_all` builds each configuration's kernel once (ideal, physical
and the seven single errors: nine), and with it the gate chain that the
oracle checks evolve; every check of the run shares them, and they are
dropped when the run ends.  A check called on its own builds what it needs.
The sigma2 = sigma6 check draws each block of random circuits in one call.
"""

from __future__ import annotations

import io
import math
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import channels, dataio, entropy, protocol, runner, statespace

IDEAL = dataio.RunConfig()
PHYSICAL = dataio.RunConfig(mode="physical")
GRID_COARSE = (-6.0, -3.0, -1.0, 0.0, 1.0, 3.0, 6.0)
SINGLE_ERRORS = tuple(channels.ERROR_CHANNELS)
CIRCUITS = 1000  # random circuits of the sigma2 = sigma6 check
CIRCUIT_SEED = 20240817

#: the kernels built so far in the current :func:`run_all`, by configuration;
#: None outside a run, so nothing built outlives it
_kernels: dict[dataio.RunConfig, protocol.ProtocolKernel] | None = None


def _kernel(config: dataio.RunConfig) -> protocol.ProtocolKernel:
    """The kernel of ``config``, built once per :func:`run_all` (anew for a check run alone)."""
    if _kernels is None:
        return runner.build_kernel(config)
    if config not in _kernels:
        _kernels[config] = runner.build_kernel(config)
    return _kernels[config]


def _points(kernel: protocol.ProtocolKernel, grid=GRID_COARSE):
    """(gibbs, forward, backward) at each bias point, ``grid`` weighted from
    ``kernel`` as one block."""
    rows = protocol.weigh_rows(kernel, IDEAL.beta_cavity, np.array(grid, dtype=float))
    for r in range(len(grid)):
        fwd, bwd = rows.tables(r)
        yield fwd.gibbs, fwd, bwd


def check_thermal_distributions() -> tuple[bool, str]:
    worst = 0.0
    for beta in (0.1, 0.5, 0.874146, 2.0, 5.0):
        for levels in (2, 4, 5, 8):
            p = statespace.gibbs_distribution(beta, levels)
            z = np.exp(-beta * np.arange(levels)).sum()
            mean_e = float(np.dot(np.arange(levels), p))
            identity = statespace.shannon_entropy(p) - (beta * mean_e + math.log(z))
            worst = max(worst, abs(identity), abs(p.sum() - 1.0))
    cold = statespace.gibbs_distribution(60.0, 4)
    hot = statespace.gibbs_distribution(1e-12, 4)
    worst = max(worst, abs(cold[0] - 1.0), float(np.abs(hot - 0.25).max()))
    bose = statespace.gibbs_distribution(0.9, 400)
    worst = max(
        worst, abs(statespace.mean_occupation(bose) - 1.0 / (math.exp(0.9) - 1.0))
    )
    ok = worst < 1e-9
    return ok, f"worst deviation {worst:.2e}"


def check_information_measures() -> tuple[bool, str]:
    rng = np.random.default_rng(7)
    pairs = rng.random((200, 2, 6))  # p, then q, of each pair
    pairs /= pairs.sum(axis=2, keepdims=True)
    p, q = pairs[:, 0], pairs[:, 1]
    kl = statespace.relative_entropy_rows(p, q)
    negative = np.flatnonzero(kl < -1e-12)
    if negative.size:
        return False, f"negative divergence {float(kl[negative[0]])}"
    worst = float(np.abs(statespace.relative_entropy_rows(p, p)).max())
    gap = rng.random(6)
    gap /= gap.sum()
    masked = gap.copy()
    masked[0] = 0.0
    masked /= masked.sum()
    if not math.isinf(statespace.relative_entropy(gap, masked)):
        return False, "support mismatch did not diverge"
    for _ in range(50):
        joint = rng.random((2, 2, 5))
        joint /= joint.sum()
        jd = statespace.JointDistribution(statespace.DEFAULT_DIMS, joint)
        info_a = statespace.mutual_information(jd, ("qubit", "cavity"))
        info_b = statespace.mutual_information(jd, "demon")
        worst = max(worst, abs(info_a - info_b))
        if info_a < -1e-12:
            return False, "negative mutual information"
        for k in range(2):
            cond_dist, prob = statespace.condition(jd, {"demon": k})
            rebuilt = cond_dist * prob
            worst = max(worst, float(np.abs(rebuilt - joint[:, k, :]).max()))
    ok = worst < 1e-12
    return ok, f"worst deviation {worst:.2e}"


def check_channel_stochasticity() -> tuple[bool, str]:
    count = 0
    for eps in (0.0, 0.03, 0.11, 0.5, 1.0):
        for encoding in channels.ENCODINGS.values():
            channels.register_channel(channels.readout_channel(eps), encoding)
            channels.register_channel(channels.feedback_channel(eps), encoding)
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
            chan = channels.register_channel(build(0.0), encoding)
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
        active = sum(
            [
                single.eps_prep != 0.0,
                single.eps_read != 0.0,
                single.eps_feed != 0.0,
                not np.array_equal(single.confusion, np.eye(3)),
                not np.array_equal(
                    single.cavity_prep,
                    np.eye(base.cavity_prep.shape[0], base.cavity_prep.shape[1]),
                ),
                single.relax_atom_prob != 0.0,
                single.relax_cavity_prob != 0.0,
            ]
        )
        if active > 1:
            return False, f"single({name!r}) left {active} channels active"
    conf = base.confusion
    expected = ((0.98, 0.02, 0.0), (0.05, 0.93, 0.02), (0.01, 0.05, 0.94))
    for col, want in enumerate(expected):
        if not np.allclose(conf[:, col], want, atol=1e-12):
            return False, f"confusion column {col} is {conf[:, col]}"
    return True, "defaults and single-error isolation verified"


def check_forward_tables() -> tuple[bool, str]:
    worst = 0.0
    for gibbs, ideal, _ in _points(_kernel(IDEAL)):
        # readout is deterministic: joint (n_Q, k) weight only on k = n_Q
        joint_nk = ideal.probs.sum(axis=(2, 3, 4))
        worst = max(worst, joint_nk[0, 1], joint_nk[1, 0])
        support = {tuple(idx) for idx in np.argwhere(ideal.probs > 0)}
        expected = {(0, 0, n, 0, n) for n in range(4)} | {
            (1, 1, n, 0, n + 1) for n in range(4)
        }
        if support != expected:
            return False, f"ideal support unexpected at dbeta={gibbs.dbeta_tilde:g}"
    for _, phys, _ in _points(_kernel(PHYSICAL)):
        worst = max(worst, abs(float(phys.probs.sum()) - 1.0))
        worst = max(worst, float(phys.probs[:, 0, :, 1, :].sum()))  # (m_Q,k)=(1,0)
    ok = worst < 1e-12
    return ok, f"worst deviation {worst:.2e}"


def check_backward_conservation() -> tuple[bool, str]:
    worst = 0.0
    for config in (IDEAL, PHYSICAL):
        for _, _, bwd in _points(_kernel(config)):
            err = abs(float(bwd.probs.sum()) + bwd.unlabeled_mass - bwd.prior_mass)
            worst = max(worst, err)
    ok = worst < 1e-12
    return ok, f"worst conservation error {worst:.2e}"


def check_oracle_consistency() -> tuple[bool, str]:
    worst = 0.0
    configs = [IDEAL, PHYSICAL]
    configs += [replace(PHYSICAL, single_error=name) for name in SINGLE_ERRORS]
    for config in configs:
        kernel = _kernel(config)
        for gibbs, fwd, _ in _points(kernel):
            (oracle,) = protocol.oracle_states(kernel.chain, gibbs, ("final",))
            diff = protocol.final_state_marginal(fwd) - oracle.probs
            worst = max(worst, float(np.abs(diff).max()))
    ok = worst < 1e-12
    return ok, f"worst marginal mismatch {worst:.2e}"


def check_fluctuation_relation() -> tuple[bool, str]:
    worst_bin = 0.0
    worst_avg = 0.0
    grid = IDEAL.grid()  # 49 points: one block
    _, hists = runner.checked_rows(_kernel(IDEAL), IDEAL, grid)
    for r, dbeta in enumerate(grid.tolist()):
        hist = hists.row(r)
        if np.any(hist.p_backward <= 0.0):
            return False, f"empty backward bin at dbeta={dbeta:g}"
        worst_bin = max(
            worst_bin,
            float(np.abs(np.log(hist.p_forward / hist.p_backward) - hist.sigma).max()),
        )
        worst_avg = max(
            worst_avg, abs(entropy.jarzynski_average(hist, "reversed") - 1.0)
        )
    ok = worst_bin < 1e-9 and worst_avg < 1e-9
    return ok, f"worst bin residual {worst_bin:.2e}, worst average residual {worst_avg:.2e}"


def check_estimator_equivalence() -> tuple[bool, str]:
    values = runner._run(_kernel(IDEAL), IDEAL).estimators
    worst = float((values.max(axis=0) - values.min(axis=0)).max())
    ok = worst < 1e-9
    return ok, f"worst six-way spread {worst:.2e}"


def _random_circuits(
    rng: np.random.Generator, count: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Forward conditionals, beta_C and dbeta of ``count`` random circuits.

    A circuit is a random gate chain (readout, feedback and detection
    stand-ins) at a random cavity temperature and bias; its conditionals are
    the chain's columns from the starts (n_Q, n_D=1, n_C).  One draw holds
    every circuit's values in the generator order of a circuit-by-circuit
    loop: its three gate matrices, then ``uniform(0.2, 3.0)`` and
    ``uniform(-6, 6)``, each ``low + (high - low) * u`` of one double ``u``.
    """
    dims = statespace.DEFAULT_DIMS
    full, init = dims.dim_cavity_full, dims.dim_cavity_init
    size = 2 * 2 * full
    draws = rng.random((count, 3 * size * size + 2))
    gates = draws[:, :-2].reshape(count, 3, size, size)
    gates /= gates.sum(axis=2, keepdims=True)
    chain = gates[:, 2] @ gates[:, 1] @ gates[:, 0]
    cond = np.ascontiguousarray(chain.reshape(count, 2, 2, full, 2, 2, full)[..., 1, :init])
    beta_cavity = 0.2 + (3.0 - 0.2) * draws[:, -2]
    dbeta = -6.0 + (6.0 - -6.0) * draws[:, -1]
    return cond, beta_cavity, dbeta


def _circuit_blocks():
    """The random circuits of the sigma2 = sigma6 check, a block at a time."""
    rng = np.random.default_rng(CIRCUIT_SEED)
    for start in range(0, CIRCUITS, runner.BLOCK_POINTS):
        yield _random_circuits(rng, min(runner.BLOCK_POINTS, CIRCUITS - start))


def check_sigma2_sigma6_identity() -> tuple[bool, str]:
    gaps = []
    estimators = entropy.ESTIMATORS
    for cond, beta_cavity, dbeta in _circuit_blocks():
        kernel = protocol.ProtocolKernel(statespace.DEFAULT_DIMS, cond, None)
        rows = protocol.weigh_rows(kernel, beta_cavity, dbeta)
        protocol.check_rows(rows)
        data = entropy.EstimatorInputs(rows)
        gaps.append(estimators["sigma2"].rows(data) - estimators["sigma6"].rows(data))
    worst = float(np.abs(np.concatenate(gaps)).max())  # a NaN gap fails the check
    ok = worst < 1e-12
    return ok, f"worst |sigma2 - sigma6| {worst:.2e} over {CIRCUITS} random circuits"


def check_second_law() -> tuple[bool, str]:
    lowest = math.inf
    for single in (None, *SINGLE_ERRORS):
        config = replace(PHYSICAL, single_error=single)
        values = runner._run(_kernel(config), replace(config, dbeta_step=0.5)).estimators
        lowest = min(lowest, float(np.min(values, where=np.isfinite(values), initial=math.inf)))
    ok = lowest >= -1e-9
    return ok, f"lowest finite estimator {lowest:.3e}"


def check_feedback_balance() -> tuple[bool, str]:
    worst = 0.0
    chain = _kernel(IDEAL).chain
    for dbeta in GRID_COARSE:
        gibbs = statespace.GibbsSpec.from_dbeta(IDEAL.beta_cavity, dbeta)
        pre, post = protocol.oracle_states(chain, gibbs, ("pre_feedback", "post_feedback"))
        worst = max(worst, abs(entropy.feedback_balance_residual(pre, post, gibbs)))
    ok = worst < 1e-9
    return ok, f"worst ideal-readout residual {worst:.2e}"


def check_serialization_roundtrip() -> tuple[bool, str]:
    ((_, fwd, bwd),) = _points(_kernel(PHYSICAL), (0.75,))
    worst = 0.0
    conds = []
    for table, orientation in ((fwd, "forward-rows-initial"), (bwd, "backward-rows-final")):
        cond = dataio.conditional_from_table(table)
        conds.append(cond)
        text = dataio.serialize_table(cond)
        reparsed = dataio.parse_table(io.StringIO(text), orientation)
        if reparsed.row_labels != cond.row_labels or reparsed.col_labels != cond.col_labels:
            return False, "labels changed in round trip"
        worst = max(worst, float(np.abs(reparsed.values - cond.values).max()))
        if dataio.serialize_table(reparsed) != text:
            return False, "serialization not idempotent"
    ((_, fwd2, bwd2),) = _points(runner.measured_kernel(*conds), (0.75,))
    worst = max(worst, float(np.abs(fwd2.probs - fwd.probs).max()))
    worst = max(worst, float(np.abs(bwd2.probs - bwd.probs).max()))
    worst = max(worst, abs(bwd2.unlabeled_mass - bwd.unlabeled_mass))
    ok = worst == 0.0
    return ok, f"worst round-trip error {worst:.2e} (exact required)"


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
    (gibbs6, fwd6, _), (_, fwd_neg, bwd_neg) = _points(_kernel(IDEAL), (6.0, -6.0))
    p_excited = 1.0 / (1.0 + math.exp(gibbs6.beta_qubit))
    closed = gibbs6.delta_beta * p_excited + statespace.shannon_entropy(
        np.array([1.0 - p_excited, p_excited])
    )
    s1_pos = entropy.sigma1(fwd6)
    asym = entropy.high_bias_asymptote(gibbs6)
    # at -6 the qubit is hot and every estimator is negligible
    neg = entropy.evaluate(fwd_neg, bwd_neg)
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


def run_all() -> bool:
    """Run every check, print one PASS/FAIL line each, return overall result.

    The checks share the kernels (and gate chains) of this run: each
    configuration's is built once, and all are dropped when the run ends.
    """
    global _kernels
    _kernels = {}
    all_ok = True
    try:
        for name, fn in CHECKS:
            try:
                ok, detail = fn()
            except Exception as exc:  # a crashed check is a failed check
                ok, detail = False, f"raised {type(exc).__name__}: {exc}"
            all_ok &= ok
            sys.stdout.write(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}\n")
    finally:
        _kernels = None
    return all_ok
