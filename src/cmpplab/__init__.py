"""cmpplab: a laboratory for compound mixed Poisson processes.

Simulate aggregate claim paths whose intensity is itself random, derive
the equivalent models induced by a progressive change of measure
(the (alpha, gamma, xi) coordinates), verify every promised identity by
seeded Monte Carlo against quadrature oracles, and price premiums under
the derived measure.
"""

from .dist import (Beta, Degenerate, DistError, Distribution, DivergentMoment,
                   Exponential, Gamma, OutsideConvergenceStrip, Tilted,
                   Uniform, expectation, log_weighted_expectation,
                   parse_distribution, sample_array)
from .expr import (DomainError, ExprSyntaxError, RealFn, UnboundParameter,
                   UnknownIdentifier, parse)
from .model import (AdmissibilityReport, BaseModel, DerivedModel,
                    MeasureChange, ModelError, NotValidated, derive_g,
                    derive_q_model, identity_change, measure_change,
                    validate_change)
from .premium import (AssumptionViolated, BadInterval, PremiumQuote,
                      check_condition_13, check_condition_14, esscher_change,
                      expected_value_change, j_integral,
                      j_integral_by_quadrature, premium_density,
                      premium_schedule)
from .quadrature import DivergentIntegral
from .rng import uniforms
from .scenario import (BUILTIN_SCENARIOS, Row, Scenario, ScenarioError,
                       load_scenario_file, parse_scenario_text, report_write,
                       resolve_scenario, run_scenario)
from .sim import (BASE_P, DERIVED_Q, MeasureTag, OutOfHorizon, PathBatch,
                  SimulationError, conditional_p, conditional_q, dump_paths,
                  log_density_batch, simulate_batch)
from .verify import (DegeneracyResult, DriftRow, EventSpec, MartingaleTable,
                     MCReport, PathFunctional, ReweightingResult,
                     aggregate_at_most, check_martingale, check_reweighting,
                     count_at_most, degeneracy_test, default_event_family,
                     f_aggregate, f_count, f_count_eq, f_one,
                     mc_estimate, process_density, process_v, process_y,
                     singularity_probe, theta_in, whole_space)

__version__ = "0.1.0"
