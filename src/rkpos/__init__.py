"""Positivity analysis of explicit Runge-Kutta time stepping for
semi-discretized transport problems.

The package answers, with exact rational arithmetic, the question: for
which step sizes does one Runge-Kutta step map nonnegative grid data to
nonnegative grid data, for every admissible nonlinearity?  The central
objects are the solution-propagation polynomials (module `polygen`),
the certified positivity step-size coefficient gamma (module `gamma`),
the classical upper bounds C and R(phi) (module `bounds`), concrete
negativity counterexamples (module `adversary`), and a direct
method-of-lines simulator used for cross-validation (module `molsim`).
"""

from .adversary import (CounterexampleReport, ScriptedQ,
                        first_step_counterexample,
                        negative_entry_counterexample, rk4_counterexample)
from .bounds import (BoundResult, radius_abs_monotonicity, ssp_coefficient,
                     ssp_feasible, stability_polynomial)
from .errors import (CapacityError, InputError, LimiterContractError,
                     ParameterDomainError, PreconditionError, RkposError)
from .gamma import (GammaCertificate, NegativityWitness, RegionCell, SweepRow,
                    compute_gamma, condition_at, gamma_zero_test, in_bowtie,
                    region_scan, subset_bits, sweep)
from .molsim import (LIMITERS, Limiter, RunReport, SemiDiscreteProblem,
                     StepTrace, advection, conservation_law, constant_q,
                     erk_step, heat_q, max_step, run, scripted, tau0)
from .multilinear import MultilinearPoly, VarTag
from .polygen import (BUILTIN_STENCILS, PropagationSet, StencilSpec, centered,
                      generate, generate_alt, heat, symmetry_report, upwind,
                      x_labels)
from .tableau import (ButcherTableau, check_order, erk22, erk33_case1,
                      erk33_case2, erk33_case3, forward_euler, make_family,
                      parse_method, rk4_classical, tableau_from_json,
                      tableau_to_json)
from .univariate import Cut, UniPoly, first_negative_cut

__version__ = "0.1.0"
