"""Exception hierarchy shared by all hermgrs modules."""


class HermgrsError(Exception):
    """Base class for all library errors."""


class InputError(HermgrsError):
    """Invalid parameters or malformed input data."""


class BudgetError(HermgrsError):
    """An exhaustive enumeration would exceed its configured budget."""


class InternalConsistencyError(HermgrsError):
    """A result failed the independent re-check it carries as a proof."""


class CompositeCharacteristic(InputError):
    pass


class FieldTooLarge(InputError):
    pass


class DivisionByZero(InputError):
    pass


class LogOfZero(InputError):
    pass


class NotInSubfield(InputError):
    pass


class DuplicateAbscissa(InputError):
    pass


class DuplicateLocator(InputError):
    pass


class DegreeTooHigh(InputError):
    pass


class DimensionMismatch(InputError):
    pass


class HypothesisViolated(InputError):
    pass


class NotInFamily(InputError):
    pass


class InvalidBetaM(InputError):
    pass


class EnumerationBudgetExceeded(BudgetError):
    pass


class CombinatorialBudgetExceeded(BudgetError):
    pass
