"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the domain an operation is defined on."""


class IndivisibleError(ArithmeticError):
    """An exact polynomial division turned out not to be exact."""


class InternalParityError(ArithmeticError):
    """A doubled cell of the companion recursion has an odd coefficient,
    which only an internal defect can cause."""


class ResourceError(RuntimeError):
    """A requested enumeration exceeds the configured size budget."""
