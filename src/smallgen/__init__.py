"""smallgen: generating sets of F_p* from small integers.

Constructions and exact minimization of generating sets drawn from an
interval [2, N], prime-divisor anatomy of p-1, smooth-number and sieve
diagnostics, and batch survey drivers with deterministic persistence.
"""

from .anatomy import (
    AnatomyRecord,
    DyadicSchedule,
    anatomy_record,
    bound_general,
    dyadic_schedule,
)
from .genset import (
    CandidateTable,
    GenSetResult,
    InfeasibleCoverError,
    SearchPolicy,
    candidate_table,
    certify,
    elementary_generating_set,
    exact_min_generating_set,
    generates,
    greedy_block_generating_set,
)
from .modcore import (
    FieldSpec,
    factorize,
    field_spec,
    is_prime,
    multiplicative_order,
    residue_signature,
)
from .sievelab import (
    PrimeSetSpec,
    ResourceLimitError,
    SieveReport,
    complement_product,
    dickman_rho,
    mertens_sum,
    primes_upto,
    psi_count,
    sieve_bound_check,
)
from .experiments import (
    MEISSEL_MERTENS,
    DensityRow,
    SurveyRow,
    density_experiment,
    quantile_report,
    survey,
    survey_row,
)

__version__ = "0.1.0"
