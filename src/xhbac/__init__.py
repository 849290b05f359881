"""Numerical laboratory for heat-bath algorithmic cooling with optimal thermalization."""

from .thermal_core import (
    CompositeSpec,
    EnergySpectrum,
    ExtremalPointSet,
    GibbsStochasticCheck,
    ThermoCurve,
    as_population,
    beta_opt_alpha,
    beta_order,
    beta_permutation,
    default_tolerance,
    extremal_points,
    gibbs_state,
    maximally_active,
    thermo_curve,
    thermo_majorizes,
    verify_gibbs_stochastic,
)
from .protocols import (
    DeterminantScan,
    OracleRound,
    ProtocolTrace,
    beta_swap_matrix,
    epsilon_noisy_trace,
    epsilon_threshold,
    ideal_ground_population,
    ladder_ground_population,
    markovian_best,
    markovian_scan,
    noisy_fixed_point,
    noisy_ground_population,
    optimal_round,
    oracle_optimal_round,
    ppa_trace,
    qudit_ladder_round,
    run_ladder_protocol,
    run_optimal_protocol,
    thermal_contact_determinant,
    to_determinant_scan,
)
from .bosonic_sim import (
    CavityParams,
    FockTruncation,
    InteractionTime,
    JointDiagState,
    ModePopulations,
    anharmonic_cooling_sums,
    anharmonic_level_table,
    asymptotic_upper_bound,
    atom_stream_sim,
    intensity_dependent_jc_round,
    jc_deexcitation,
    jc_reuse_trace,
    jc_round,
    optimize_interaction_time,
    pauli_x,
    rethermalize_mode,
    reuse_protocol_trace,
    u_beta_apply,
    upper_bound_G,
)

__version__ = "0.1.0"

# experiment layer; imported last so the core modules stay import-cycle free
from .config import ExperimentConfig  # noqa: E402
from .results import ResultTable  # noqa: E402
from .figures import run_figure  # noqa: E402
from .acceptance import run_acceptance  # noqa: E402
