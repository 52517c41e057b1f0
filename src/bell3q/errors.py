"""Exception hierarchy shared by all bell3q modules.

The command line interface maps these families onto exit codes:
configuration problems exit with 2, numeric contract violations with 3,
and search or enumeration budget refusals with 4.
"""


class Bell3qError(Exception):
    """Base class for all package errors."""


class ConfigError(Bell3qError):
    """Invalid user-facing configuration: unknown ids, malformed specs or files."""


class StateFormatError(ConfigError):
    """A custom state file could not be parsed into a 4 or 8 entry amplitude list."""


class ExpressionFormatError(ConfigError):
    """A custom expression file could not be parsed into terms."""


class ContractViolationError(Bell3qError):
    """A numeric contract was violated: norms, arities, outcome values, domains."""


class NormalizationError(ContractViolationError):
    """Amplitudes are too far from unit norm to be accepted or renormalized."""


class BudgetExceededError(Bell3qError):
    """A search or enumeration would exceed its evaluation budget."""


class EnumerationSizeError(BudgetExceededError):
    """A deterministic-strategy enumeration is too large to run exhaustively."""
