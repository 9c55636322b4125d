"""Exception hierarchy shared by all modules."""


def _rebuild(cls, args):
    return cls.__new__(cls, *args)


class ExpertMapError(Exception):
    """Base class for all library errors.

    An error pickles as its message arguments plus its attributes and is
    rebuilt without calling ``__init__``, so one raised in a worker process
    reaches the caller with every attribute a subclass's constructor set.
    """

    def __reduce__(self):
        return _rebuild, (type(self), self.args), self.__dict__


class ParseError(ExpertMapError):
    """Malformed input file (bad row length, non-numeric cell, empty file)."""


class ValidationError(ExpertMapError):
    """Input violates a documented precondition or invariant."""


class InternalError(ExpertMapError):
    """A structural invariant that the library itself maintains was broken."""


class TrainingDiverged(ExpertMapError):
    """Loss became non-finite during gradient descent."""

    def __init__(self, message: str, epoch: int, learning_rate: float):
        super().__init__(message)
        self.epoch = epoch
        self.learning_rate = learning_rate


class BoundViolation(ExpertMapError):
    """A quantified bound that must hold was violated; carries the record."""

    def __init__(self, message: str, record=None):
        super().__init__(message)
        self.record = record
