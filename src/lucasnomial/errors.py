"""Exception types shared across the package, and the default size budget."""


class DomainError(ValueError):
    """An argument lies outside the domain an operation is defined on."""


class IndivisibleError(ArithmeticError):
    """An exact polynomial division turned out not to be exact."""


class InternalParityError(ArithmeticError):
    """A doubled cell of the companion recursion has an odd coefficient,
    which only an internal defect can cause."""


class ResourceError(RuntimeError):
    """A requested enumeration exceeds the configured size budget."""


# The default cap on the tiling pairs an enumeration may visit, and on the
# lines (or the parts of one line) a CLI listing may print.
PAIR_BUDGET = 10**7
