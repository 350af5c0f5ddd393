"""Exception types shared across the pipeline.

Every error carries enough context to print a one-line diagnostic; the CLI
maps each class name to a nonzero exit.
"""

import copyreg


class BcgSleepError(Exception):
    """Base class for all pipeline errors.

    An error pickles as its class, message and attributes, without calling
    __init__ again: a subclass builds its message from other arguments, so
    Exception's pickling, which passes the message back to __init__, would
    double it or fail. Errors raised in a forked worker (core.fork_map)
    reach the caller this way.
    """

    def __reduce__(self):
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class TooFewItems(BcgSleepError):
    """A step got fewer of something than it needs; unit names what, such as
    nights, windows or training windows."""

    def __init__(self, n, needed, unit):
        super().__init__(f"need at least {needed} {unit}, got {n}")
        self.n = n
        self.needed = needed
        self.unit = unit


# --- core ---------------------------------------------------------------

class InvalidStageCode(BcgSleepError):
    def __init__(self, name):
        super().__init__(f"unknown stage name: {name!r}")
        self.name = name


# --- ingest -------------------------------------------------------------

class MalformedRow(BcgSleepError):
    def __init__(self, line_no, detail=""):
        msg = f"malformed row at line {line_no}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)
        self.line_no = line_no


class NonMonotonicTimestamp(BcgSleepError, ValueError):
    """NightRecord's timestamp check; a ValueError like its other checks."""

    def __init__(self, t):
        super().__init__(f"timestamp not strictly increasing at t={t}")
        self.t = t


class NegativeVital(BcgSleepError):
    """A vital is negative or non-finite."""

    def __init__(self, field, t=None, value=None):
        where = f" at t={t}" if t is not None else ""
        super().__init__(f"invalid value for {field}{where}: {value!r}")
        self.field = field
        self.t = t
        self.value = value


class UnknownLevel(BcgSleepError):
    def __init__(self, name):
        super().__init__(f"unknown sleep level name: {name!r}")
        self.name = name


class OverlappingIntervals(BcgSleepError):
    def __init__(self, i, j):
        super().__init__(f"label intervals {i} and {j} overlap")
        self.i = i
        self.j = j


# --- preprocess ---------------------------------------------------------

class AllMissing(BcgSleepError):
    """An input holds none of what a step needs; the message says what."""


# --- sleepwake ----------------------------------------------------------

class RecordTooShort(BcgSleepError):
    def __init__(self, length, needed):
        super().__init__(f"record spans {length}s, need at least {needed}s")
        self.length = length
        self.needed = needed


class NoEpochs(BcgSleepError):
    def __init__(self):
        super().__init__("no epochs to summarize")


# --- features -----------------------------------------------------------

class EmptyMatrix(BcgSleepError):
    def __init__(self):
        super().__init__("matrix has no rows")


class DegenerateMatrix(BcgSleepError):
    def __init__(self):
        super().__init__("covariance matrix is identically zero")


# --- models -------------------------------------------------------------

class EmptyTrainingSet(BcgSleepError):
    def __init__(self, what="training set"):
        super().__init__(f"{what}: training set is empty")


class SchemaMismatch(BcgSleepError):
    def __init__(self, detail):
        super().__init__(f"schema mismatch: {detail}")


# --- eval ---------------------------------------------------------------

class LengthMismatch(BcgSleepError):
    def __init__(self, a, b):
        super().__init__(f"sequence lengths differ: {a} vs {b}")


class ConstantInput(BcgSleepError):
    def __init__(self, which):
        super().__init__(f"correlation undefined: {which} input is constant")


# --- synth --------------------------------------------------------------

class DurationTooShort(BcgSleepError):
    def __init__(self, duration, needed):
        super().__init__(f"night duration {duration}s too short, need {needed}s")


# --- devicesim ----------------------------------------------------------

class InitialConnectFailure(BcgSleepError):
    def __init__(self, endpoint: str, deadline):
        self.endpoint = endpoint
        self.deadline = deadline
        super().__init__(f"could not connect to {endpoint} within {deadline}s")
