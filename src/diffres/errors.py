"""Exception hierarchy shared by all modules.

Two families matter for the CLI exit codes: MathError (the computation is
well posed but the mathematical assumptions fail, exit code 1) and
InputError (the input itself is malformed, exit code 2).
"""


class DiffresError(Exception):
    """Base class for every error raised by this package."""


class MathError(DiffresError):
    """A mathematical assumption or solvability condition failed."""


class InputError(DiffresError):
    """The input (file, expression, argument combination) is malformed."""


# -- algebra ----------------------------------------------------------------

class NotDivisible(MathError):
    """Exact polynomial division has a nonzero remainder."""


class DivisionByZero(MathError):
    pass


class NonSquare(MathError):
    """Determinant requested for a non-square matrix."""


# -- systems ----------------------------------------------------------------

class AssumptionViolated(MathError):
    """One of the standing assumptions on the system does not hold."""


class TooLarge(MathError):
    """An enumeration or exact computation exceeds its size bound."""


# -- formulas ---------------------------------------------------------------

class NotDefinable(MathError):
    """A row bound of the requested formula matrix is negative."""

    def __init__(self, row, bound):
        self.row = row
        self.bound = bound
        super().__init__(f"row {row} would get {bound} < 0 derivative rows")


class BetaOmegaViolated(MathError):
    """The (beta, omega) compatibility conditions fail."""


class ColumnMissing(MathError):
    """Assembly produced a derivative that has no column in the spec."""

    def __init__(self, label):
        self.label = label
        super().__init__(f"no column for u{label[0]}^({label[1]})")


# -- structure --------------------------------------------------------------

class NotSuperEssential(MathError):
    pass


class NotDifferentiallyEssential(MathError):
    pass


# -- perturbations ----------------------------------------------------------

class SymbolClash(MathError):
    """The fresh perturbation constant is already used by the system."""


class ZeroInput(MathError):
    """An operation that needs a nonzero input received zero."""


class EmptyInput(MathError):
    pass


class NotLinear(MathError):
    """A polynomial is not linear in the designated symbol family."""


class NotDPPEShaped(MathError):
    """Membership checking needs free terms that are single fresh constants."""


# -- parsing ----------------------------------------------------------------

class ParseError(InputError):
    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        where = f" at line {line}" if line is not None else ""
        if column is not None:
            where += f", column {column}"
        super().__init__(message + where)


class NonlinearInParams(InputError):
    """An equation term multiplies two parameter derivatives."""


class UndeclaredSymbol(InputError):
    def __init__(self, name):
        self.name = name
        super().__init__(f"symbol '{name}' was not declared")
