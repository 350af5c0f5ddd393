"""Exception types shared across the pipeline.

Every error carries enough context to print a one-line diagnostic; the CLI
maps each class name to a nonzero exit.
"""


class BcgSleepError(Exception):
    """Base class for all pipeline errors."""


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
    def __init__(self, what="series"):
        super().__init__(f"cannot impute: {what} has no present value")


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

class TooFewItems(BcgSleepError):
    def __init__(self, n, needed):
        super().__init__(f"got {n} items, need at least {needed}")
        self.n = n
        self.needed = needed


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


class TooFewPoints(BcgSleepError):
    def __init__(self, n, needed):
        super().__init__(f"got {n} points, need at least {needed}")
        self.n = n
        self.needed = needed


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
