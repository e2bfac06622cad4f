"""Exception hierarchy for the isocurv package."""


class IsocurvError(Exception):
    """Base class for all isocurv errors."""


class DimensionMismatch(IsocurvError):
    """A vector or tensor does not match the model dimension."""


class InvalidModel(IsocurvError):
    """The metric or complex-structure data cannot define a model point."""


class MissingComplexStructure(IsocurvError):
    """An operation requiring J was called on a model without one."""


class DependentInput(IsocurvError):
    """Input vectors are linearly dependent."""


class DegenerateSubspace(IsocurvError):
    """The metric restricted to the spanned subspace has a radical."""


class DegeneratePlane(IsocurvError):
    """Sectional curvature requested on a plane with vanishing discriminant."""


class UnsupportedSignature(IsocurvError):
    """The requested construction does not exist for this signature."""


class HybridConditionViolated(IsocurvError):
    """The bilinear form fails S(x,Jy) + S(y,Jx) = 0."""


class InvalidDocument(IsocurvError):
    """A tensor document file is malformed or inconsistent."""


class NonFiniteTensor(IsocurvError):
    """A tensor under test has a NaN or infinite component."""


class InvalidSampleCount(IsocurvError):
    """A sample count is below one."""


class InvalidTolerance(IsocurvError, ValueError):
    """A relative tolerance is not a positive finite number."""
