"""Exception hierarchy shared by all dcerad modules.

Every expected failure raises a subclass of DceradError so the CLI can map
library errors to exit code 1 and leave genuine bugs as loud tracebacks.
"""


class DceradError(Exception):
    """Base class for all expected dcerad failures."""


# --- geometry / masks -------------------------------------------------------

class DimensionMismatch(DceradError):
    pass


class EmptyMask(DceradError):
    pass


class EmptyMap(DceradError):
    pass


class WrongMapKind(DceradError):
    pass


# --- filters ----------------------------------------------------------------

class VolumeTooSmall(DceradError):
    pass


class NonPositiveSigma(DceradError):
    pass


# --- discretization / features ---------------------------------------------

class BadLevelCount(DceradError):
    pass


# --- selection / model fitting ----------------------------------------------

class TooFewRows(DceradError):
    pass


class TooFewSamples(DceradError):
    pass


class SingularCovariance(DceradError):
    pass


# --- evaluation ---------------------------------------------------------------

class LengthMismatch(DceradError):
    pass


class EmptyInput(DceradError):
    pass


class OneClassOnly(DceradError):
    pass


class TooFewGroups(DceradError):
    pass


# --- dataset I/O --------------------------------------------------------------

class UnsupportedDatatype(DceradError):
    pass


class BadMagic(DceradError):
    pass


class TruncatedFile(DceradError):
    pass


class NonPositivePixdim(DceradError):
    pass


class NonFiniteIntensity(DceradError):
    pass


class MissingSidecar(DceradError):
    pass


class MetadataMismatch(DceradError):
    pass


class ParseError(DceradError):
    pass


class DuplicateLesion(DceradError):
    pass


class UnknownLabel(DceradError):
    pass


class HeaderMismatch(DceradError):
    pass


class IoError(DceradError):
    pass


# --- phantom ------------------------------------------------------------------

class LesionDoesNotFit(DceradError):
    pass
