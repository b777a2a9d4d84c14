"""privlens: exact audit of adversarial information leakage for discrete
mechanisms over finite record universes."""

__version__ = "0.1.0"

from .probability import (
    DEFAULT_ETA,
    Prob,
    ProbabilityError,
    TOL,
    format_number,
    log_ratio,
    nats_to_bits,
    parse_probability,
    ratio_div,
    ratios_agree,
)
from .universe import (
    BOT,
    DEFAULT_ENUMERATION_BUDGET,
    EnumerationBudgetError,
    RecordUniverse,
    UniverseError,
    l1_distance,
    uniform_universe,
)
from .prior import (
    FamilyParams,
    JointPrior,
    MembershipReport,
    PriorError,
    check_membership,
    dataset_distribution,
    extremal_pair_prior,
    extremal_pdelta_prior,
    histogram_masses,
    independent_prior,
    prior_from_flat,
    sample_prior,
    sigma,
    uniformity_band,
    verify_factorization,
)
from .mechanism import (
    Channel,
    ChannelError,
    RatioScan,
    change_histogram_pairs,
    change_sequence_pairs,
    dp_epsilon,
    geometric_counting_channel,
    lipschitz_ratio,
    matrix_channel,
    postprocess,
    randomized_response_channel,
)
from .leakage import (
    JointTables,
    LeakageError,
    LeakageReport,
    Quantity,
    expected_distortion,
    inferential_eps,
    leakage_report,
    max_mi,
    max_rel_entropy,
    mi,
    normalize_target,
    output_entropy,
)
from .audit import (
    AuditError,
    SupResult,
    TightnessResult,
    Verdict,
    bound_pdelta,
    certify_pk,
    group_certify,
    interpolated_bound,
    leq_with_tol,
    necessary_pdelta,
    personalized_check,
    sufficient_nk,
    tightness_pk,
    worstcase_sup,
)
from .compose import (
    CompositionError,
    EpochModel,
    EpochReport,
    certify_composition,
    direct_epoch_max_mi,
    epoch_leakage,
    equal_epoch_reduction,
    product_channel,
)
