"""Exact algebra of self-progressive choice models.

Progressive decomposition of random choice functions, lattice verification
and closure over choice models, the choice-overload axiom systems and the
minimal extension of rational choice, the cumulative inequality polytope,
and identification of the primitive ordering from revealed betweenness.
"""

from .core import (
    ChoiceDomain,
    ChoiceError,
    ChoiceFunction,
    Comparison,
    DomainMismatchError,
    GuardError,
    PrimitiveOrderings,
    compare,
    join,
    meet,
)
from .models import (
    ChoiceModel,
    LatticeWitness,
    MixtureWitness,
    ThetaViolation,
    enumerate_rational,
    gen_random_model,
    is_chain,
    is_lattice,
    is_mixture_closed,
    lattice_closure,
    satisfies_theta,
    theta_model,
)
from .random_choice import (
    ProgressiveRepresentation,
    RThetaViolation,
    RandomChoiceFunction,
    compose,
    decompose_progressive,
    decompose_theta,
    deterministic,
    in_delta,
    satisfies_rtheta,
)
from .polytope import ConstraintSystem, build_constraints
from .identify import (
    AxiomReport,
    BetweennessRelation,
    agreeing_orderings,
    betweenness,
    check_axioms,
    identify_primitive,
)

__version__ = "0.1.0"
