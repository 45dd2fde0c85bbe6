"""Entropy production of an autonomous Maxwell demon, trajectory by trajectory.

Exact stochastic simulation of a qubit/memory/cavity feedback circuit over a
truncated energy basis, six equivalent-in-the-ideal-limit entropy-production
estimators, a model of the experiment's error channels, and tooling to
re-analyze measured conditional-probability tables.
"""

from .channels import (
    ENCODINGS,
    ERROR_CHANNELS,
    AtomLevel,
    ErrorModel,
    StochasticChannel,
    apply,
    compose,
    detection_channel,
    feedback_channel,
    prepare_cavity,
    prepare_register,
    readout_channel,
    register_channel,
    relaxation_channel,
    time_reverse,
    two_atom_probability,
)
from .dataio import (
    ConditionalTable,
    RunConfig,
    conditional_from_table,
    kelvin_to_beta_omega,
    load_config,
    parse_table,
    serialize_table,
    sweep_csv_text,
    write_table,
)
from .entropy import (
    ESTIMATORS,
    EpColumns,
    EpResult,
    evaluate,
    feedback_balance_residual,
    high_bias_asymptote,
    jarzynski_rows,
)
from .protocol import (
    SigmaHistogram,
    TrajectoryTable,
    backward_table,
    branch_probability,
    forward_table,
    measured_kernel,
    point_tables,
    sigma_grid,
    sigma_histogram,
)
from .runner import (
    build_kernel,
    run_analysis,
    run_sweep,
    simulate_report,
)
from .statespace import (
    DEFAULT_DIMS,
    GibbsSpec,
    JointDistribution,
    SystemDims,
    condition,
    extended_gibbs,
    gibbs_distribution,
    marginalize,
    mean_occupation,
    mutual_information,
    relative_entropy,
    shannon_entropy,
)

__version__ = "0.1.0"
