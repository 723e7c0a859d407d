"""Coherence optimization over deterministic policies in exactly computable
tabular Bayesian learning systems."""

from .errors import (
    CohoptError,
    DegenerateConditioningError,
    EnumerationCapError,
    ValidationError,
)
from .systems import (
    DEFAULT_ENUMERATION_CAP,
    Conditioned,
    ContextPartition,
    DPolicy,
    ErgodicityReport,
    MixtureBayesSystem,
    PolicyState,
    check_chain_rule,
    check_ergodicity,
    enumerate_policy_masses,
    from_joint_table,
    generic_partition,
    infer,
    random_mixture_system,
    state_of_policy,
    temper,
    tempered_infer,
    validate_policy,
)
from .coherence import (
    CoherenceValue,
    PolicyDistribution,
    QuotientSpec,
    check_change_of_prior,
    check_prior_encodes_samples,
    coherence,
    pmi,
    quotient_coherence,
    sequence_coherence,
    softmax_over_coherence,
)
from .samplers import (
    BootstrapResult,
    PositivityWarning,
    RunRecord,
    SamplerConfig,
    bootstrap_exact_distribution,
    debate_run,
    exact_conditional_distribution,
    gibbs_run,
    gibbs_step_probability,
    icm_hill_climb,
    mutual_predictability,
    simple_bootstrap_run,
    training_friendly_gibbs_run,
)
from .analysis import (
    AgreementStats,
    BoundReport,
    TrialRow,
    accuracy_lower_bound,
    agreement,
    bound_validity_trials,
    conjectured_posttrain_count,
    distribution_entropy,
    distribution_kl,
    empirical_distribution,
    optimality_gap,
    regularization_bound_rhs,
    srm_select,
    ternary_search_sample_count,
    tv_distance,
    uniform_convergence_bound,
)
from .experiments import (
    METHODS,
    EquivalenceRow,
    EquivalenceStudy,
    Scenario,
    SemiSupervisedReport,
    equivalence_study,
    generate_scenario,
    run_semi_supervised,
)
from .checks import (
    SweepResult,
    run_all_sweeps,
    sweep_chain_rule,
    sweep_change_of_prior,
    sweep_order_invariance,
    sweep_prior_encodes_samples,
)
from .fileio import (
    ScenarioFile,
    load_scenario,
    save_scenario,
    scenario_to_dict,
    write_distribution_csv,
    write_experiment_reports,
    write_trajectory_csv,
)

__version__ = "0.1.0"
