"""Exception types shared across the package.

Every failure mode that callers are expected to catch gets its own
class here, so numerical guards can be tested precisely instead of
matching on message strings.
"""


class MadelungLabError(Exception):
    """Base class for all package specific errors."""


class BoundaryLeak(MadelungLabError):
    """A field meant to vanish at the box edges carries visible mass there.

    Spectral differentiation and box quadrature silently wrap such fields
    around the periodic boundary, so the operation is refused instead.
    """


class NormDrift(MadelungLabError):
    """A probability density or wave function is not normalized to 1."""


class NodeDetected(MadelungLabError):
    """The wave amplitude dips below the node floor somewhere on the grid.

    Phase unwrapping and the velocity field are meaningless across a node,
    so no wave field is built across one and decomposition never sees it.
    """


class FieldRefused(MadelungLabError, ValueError):
    """A field or perturbation breaks a rule of its construction (non-finite,
    not positive, not held by the grid, with mass or endpoint values); also
    a ValueError."""


class UnwrapInconsistent(MadelungLabError):
    """Neighbouring phase samples jump too much for reliable unwrapping."""


class AmplitudeInfeasible(MadelungLabError):
    """No positive rescaling of a density perturbation keeps rho positive."""


class SupportLeak(MadelungLabError):
    """A velocity correction fails to vanish outside the perturbed region."""


class Diverged(MadelungLabError):
    """A stochastic trajectory left the simulation box."""


class ConfigError(MadelungLabError):
    """An experiment configuration is missing keys or holds bad values."""


class OrderingViolated(MadelungLabError):
    """An action ordering that must hold up to quadrature error fails.

    The squared transport distance bounds a couple's kinetic action from
    below, and removing the Fisher term can only lower an action.
    """
