"""Reduced dynamics, special solutions and variational orbits of the
n-body problem in euclidean spaces of arbitrary dimension."""

from .errors import (
    CollisionApproach,
    CollisionAtNode,
    CollisionError,
    DegenerateConfiguration,
    InfeasibleSpectrum,
    NBodyError,
    NegativeSquaredDistance,
    NoConvergence,
    NotAttractive,
    NotBalanced,
    NotCentral,
    NumericalError,
    StepFailure,
    ValidationError,
)
from .geometry import (
    COLLISION_FLOOR,
    Configuration,
    MassSystem,
    RelativeState,
    State,
    beta_to_distances,
    gram_form,
    inertia,
    potential_and_gradient,
)

__version__ = "0.1.0"
