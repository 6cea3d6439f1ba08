"""Exception hierarchy for nilgeom."""


class NilgeomError(Exception):
    """Base class for all package errors."""


# -- group construction ------------------------------------------------------

class BadDimensions(NilgeomError):
    pass


class GradingViolation(NilgeomError):
    pass


class JacobiViolation(NilgeomError):
    pass


class NonPositiveScale(NilgeomError):
    pass


# -- tangent algebra ---------------------------------------------------------

class DegenerateTangent(NilgeomError):
    pass


# -- expression parsing ------------------------------------------------------

class ParseError(NilgeomError):
    def __init__(self, position: int, message: str):
        super().__init__(f"parse error at position {position}: {message}")
        self.position = position
        self.message = message


class ArityError(NilgeomError):
    pass


class NonDifferentiable(NilgeomError):
    pass


# -- manifold analysis -------------------------------------------------------

class DomainViolation(NilgeomError):
    pass


class NonFinite(NilgeomError):
    pass


class NonSimpleProjection(NilgeomError):
    pass


class InconsistentDegree(NilgeomError):
    pass


# -- metrics and measure -----------------------------------------------------

class EmptySection(NilgeomError):
    pass


class CalibrationFailed(NilgeomError):
    pass


class RadiusTooSmall(NilgeomError):
    pass


class BoundaryTooClose(NilgeomError):
    pass


class CloudTooSparse(NilgeomError):
    pass


class LevelSetNotGraph(NilgeomError):
    pass


class NotVertical(NilgeomError):
    pass


# -- cli ---------------------------------------------------------------------

class ConfigError(NilgeomError):
    pass
