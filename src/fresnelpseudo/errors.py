"""Error taxonomy shared by all modules.

Every failure mode raised on purpose by this package derives from
FresnelPseudoError, so callers (and the CLI) can distinguish numerical
failures from programming errors.
"""

import math
import numbers


class FresnelPseudoError(Exception):
    """Base class for all errors raised by fresnelpseudo."""


class DomainError(FresnelPseudoError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


def check_params(
    alpha=None, p=None, t=None, theta=None, tol=None, nu=None, sigma=None, beta=None, n=None
):
    """Raise DomainError unless each given parameter lies in its range;
    the chained comparisons are false for NaN, and inf is excluded."""
    if alpha is not None and not 1.0 < alpha < math.inf:
        raise DomainError(f"alpha must exceed 1, got {alpha}")
    if p is not None and not 0.0 <= p <= 1.0:
        raise DomainError(f"p must lie in [0,1], got {p}")
    if t is not None and not 0.0 < t < math.inf:
        raise DomainError(f"t must be positive, got {t}")
    if theta is not None and not 0.0 < theta < 1.0:
        raise DomainError(f"theta must lie in (0,1), got {theta}")
    if tol is not None and not 0.0 < tol < math.inf:
        raise DomainError(f"tol must be positive, got {tol}")
    if nu is not None and not 0.0 < nu <= 2.0:
        raise DomainError(f"index must lie in (0, 2], got {nu}")
    if sigma is not None and not 0.0 < sigma < math.inf:
        raise DomainError(f"scale must be positive, got {sigma}")
    if beta is not None and not -1.0 <= beta <= 1.0:
        raise DomainError(f"asymmetry must lie in [-1, 1], got {beta}")
    if n is not None and not (isinstance(n, numbers.Integral) and n >= 1):
        raise DomainError(f"n must be a positive integer, got {n}")


class NonConvergent(FresnelPseudoError, ArithmeticError):
    """A series or oscillatory tail failed to stabilize within its iteration cap."""


class UnsupportedClosedForm(FresnelPseudoError, ValueError):
    """A closed-form evaluation was requested outside the parameters that have one."""


class QuadratureFailure(FresnelPseudoError, ArithmeticError):
    """A quadrature error estimate exceeded the requested tolerance."""


class InvalidRegime(FresnelPseudoError, ValueError):
    """Subordination parameters map outside the admissible stable-law region."""


class UnsupportedExponent(FresnelPseudoError, ValueError):
    """The sampler does not support this stable exponent (use the Cauchy path)."""


class RootFindingFailure(FresnelPseudoError, ArithmeticError):
    """Polynomial root residuals exceeded tolerance after polishing."""
