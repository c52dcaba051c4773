"""Risk-sensitive ergodic stochastic games on countable-state CTMDPs.

Two players control the transition rates and running costs of a Markov
jump process; each wants to minimize the long-run growth rate of their
expected exponentiated cost.  The library computes principal eigenpairs
of the cost-tilted generators on nested finite truncations, iterates best
responses to equilibrium candidates with honest certification, simulates
jump paths to cross-validate eigenvalues against Monte-Carlo estimates,
and machine-checks the drift conditions under which all of this is known
to work.

Modules
-------
model
    Game models, stationary strategies, truncations, the shop example,
    JSON (de)serialization.
generator
    The action-pair table, its weighted contraction, and the tilted
    operator.
eigensolver
    Linear and nonlinear principal eigenpairs; truncation ladders.
nash
    Best responses, equilibrium iteration, certificates, selector checks.
simulate
    Jump-path sampling, risk-sensitive cost estimation, hitting checks.
verify
    Drift/irreducibility/anchor checks and the shop condition displays.
cli
    Batch front-end (``rsgame solve|ladder|simulate|verify``).
"""

from .model import (
    GameModel,
    LyapunovSpec,
    ShopParams,
    StationaryStrategy,
    Truncation,
    birth_death_model,
    load_model,
    mix_strategies,
    model_from_dict,
    model_to_dict,
    pure_strategy,
    save_model,
    shop_lyapunov_spec,
    shop_model,
    tabular_model,
    tabular_strategy,
    truncate,
    uniform_strategy,
    validate_model,
    with_cost_shift,
)
from .generator import PairTable, TwistedMatrix, assemble, pair_table
from .eigensolver import (
    ConvergenceError,
    EigenPair,
    LadderResult,
    best_response_eigenpair,
    principal_eigenpair,
    truncation_ladder,
)
from .nash import (
    NashCertificate,
    best_response,
    certify,
    converse_check,
    converse_report,
    find_nash,
    nash_iterate,
)
from .simulate import (
    HittingReport,
    RiskCostEstimate,
    TrajectorySample,
    estimate_risk_cost,
    hitting_representation_check,
    sample_path,
)
from .verify import (
    AssumptionReport,
    check_anchor_row,
    check_growth_drift,
    check_irreducibility,
    check_killed_drift,
    shop_condition_report,
)

__version__ = "0.1.0"
