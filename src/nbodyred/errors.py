"""Exception hierarchy and the INFO line of the nbodyred logger.

Validation errors (bad user input) derive from :class:`ValidationError`;
numerical failures (collisions, non-convergence, ...) derive from
:class:`NumericalError`.  The CLI maps the former to exit code 2 and the
latter to exit code 3.
"""

import sys as _sys


def log_info(msg, *args):
    """INFO on the nbodyred logger.  logging is looked up, not imported: a
    process that never imported it has no handler for the line (the CLI
    imports it only when NBODY_LOG is set), and the import would cost a
    few ms and 0.6 MB."""
    logging = _sys.modules.get("logging")
    if logging is not None:
        logging.getLogger("nbodyred").info(msg, *args)


class NBodyError(Exception):
    pass


class ValidationError(NBodyError):
    pass


class NumericalError(NBodyError):
    pass


class CollisionError(NumericalError):
    """Two bodies closer than the collision floor."""


class NegativeSquaredDistance(NumericalError):
    """A Gram table produced a squared distance below -tol."""


class StepFailure(NumericalError):
    """The integrator's step size underflowed."""


class DegenerateConfiguration(NumericalError):
    """Total collision (moment of inertia ~ 0)."""


class NoConvergence(NumericalError):
    """An iterative solver ran out of iterations."""


class InfeasibleSpectrum(ValidationError):
    """Requested inertia spectrum has rank exceeding n - 1."""


class NotCentral(ValidationError):
    """Configuration fails the central-configuration residual test."""


class NotBalanced(ValidationError):
    """Configuration fails the commutation (balance) residual test."""


class NotAttractive(NumericalError):
    """Interaction matrix not negative on the configuration's image."""


class CollisionAtNode(NumericalError):
    """A loop passes below the collision floor at a quadrature node."""


class CollisionApproach(NumericalError):
    """Line search could not stay above the distance floor."""
