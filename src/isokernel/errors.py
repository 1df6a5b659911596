"""Exception hierarchy shared by all isokernel modules.

Two broad families matter to callers: ``DataError`` for anything wrong with
inputs, files, parameters or object provenance, and ``NumericError`` for
failures of the numerical machinery itself. The CLI maps them to distinct
exit codes.
"""


class IsoKernelError(Exception):
    """Base class for all errors raised by this package."""


class DataError(IsoKernelError):
    """Bad input data, parameters, or mismatched objects."""


class LineError(DataError):
    """Bad input that may name the line of the file it was found on."""

    def __init__(self, message, lineno=None):
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)
        self.lineno = lineno


class ParseError(LineError):
    """A line of an input file could not be parsed."""


class FormatError(LineError):
    """Structurally invalid input (e.g. non-increasing feature indices)."""


class LoadError(DataError):
    """A file-level constraint was violated (e.g. more than two labels)."""


class SizeError(DataError):
    """A requested size exceeds what the data can provide."""


class SampleError(DataError):
    """A sample of the requested size cannot be drawn."""


class ProvenanceError(DataError):
    """Objects from different fitted transformers were mixed."""


class ShapeError(DataError):
    """Array shapes do not agree."""


class ParameterError(DataError):
    """A numeric parameter is outside its valid range."""


class ConfigError(DataError):
    """An evaluation protocol configuration is unusable."""


class ContractError(DataError):
    """An input violates a documented precondition (e.g. asymmetry)."""


class NumericError(IsoKernelError):
    """A numerical routine failed to produce a usable result."""


class DegenerateKernelError(NumericError):
    """All kernel Gram eigenvalues fell below the usable floor."""
