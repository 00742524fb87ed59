"""Error taxonomy for the hypertoric package.

Every failure mode that callers are expected to handle gets its own class;
all inherit from HypertoricError so a bare `except HypertoricError` catches
any math-level refusal (as opposed to programming errors, which stay
ValueError/TypeError).
"""


class HypertoricError(Exception):
    """Base class for all math-level errors raised by this package."""


class RankDeficient(HypertoricError):
    """The matrix a has rank < d over Q."""


class NonGenericStability(HypertoricError):
    """theta_hat pairs to zero with some circuit kernel vector (wall data)."""


class DimensionMismatch(HypertoricError):
    """Shapes of inputs are inconsistent."""


class NotSmooth(HypertoricError):
    """Operation requires a smooth (simple + unimodular) arrangement."""


class ParameterDegeneracy(HypertoricError):
    """A parameter specialization hit a denominator zero or collapsed the staircase."""


class BudgetExceeded(HypertoricError):
    """A computation exceeded its configured work budget."""


class NotZeroDimensional(HypertoricError):
    """The ideal is not zero-dimensional over the parameter field."""


class InconsistentExtraction(HypertoricError):
    """Steinberg operator extraction found a residue that is not constant
    along its wall, or two divisors whose residues disagree."""


class PoleOrderError(HypertoricError):
    """Residue extraction found a pole that is not simple."""


class OutsideLocalization(HypertoricError):
    """A coefficient to be inverted (or brought into the localized
    coefficient ring) has a factor outside its multiplicative set: neither
    a q_l nor a wall polynomial of a circuit."""


class SingularEvaluation(HypertoricError):
    """Numeric evaluation hit (or came too close to) a pole/singular locus."""


class StepFailure(HypertoricError):
    """ODE transport failed: a propagator was not finite, or the bisection
    of a path segment exhausted its interval budget or its depth without
    every interval passing."""


class DegenerateModel(HypertoricError):
    """Mirror model punctures collide (or hit 0) for the given q."""


class UnsupportedDimension(HypertoricError):
    """Requested operation is not implemented for this base dimension d
    (period contours and scalar exponents need d = 1)."""


class BranchTrackingFailure(HypertoricError):
    """Continuous branch tracking could not keep increments small enough."""


class QuadratureFailure(HypertoricError):
    """Adaptive contour quadrature did not reach the requested tolerance."""


class IncompleteCriticalSet(HypertoricError):
    """Newton from a joint eigenvalue did not converge to a critical point
    of the superpotential."""


class SearchBudgetExceeded(HypertoricError):
    """Saturated-collection enumeration exceeded its search budget."""
