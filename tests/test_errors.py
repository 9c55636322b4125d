import pickle

import pytest

from expertmap import errors
from expertmap.validate import SeparationRecord

RECORD = SeparationRecord(lhs=0.1, e_neq_g_gap=0.3, s_pairs=12, max_factor=1.5,
                          cost=0.02, root_rhs=0.2, rhs=0.24, holds=False, rhs_scaled=None)

# constructor arguments beyond the message, per error class
EXTRA = {errors.ExpertMapError: {}, errors.ParseError: {}, errors.ValidationError: {},
         errors.InternalError: {},
         errors.TrainingDiverged: {"epoch": 3, "learning_rate": 0.5},
         errors.BoundViolation: {"record": RECORD}}


def test_every_error_class_is_covered():
    def subclasses(cls):
        return {cls}.union(*(subclasses(sub) for sub in cls.__subclasses__()))
    assert subclasses(errors.ExpertMapError) == set(EXTRA)


@pytest.mark.parametrize("cls", list(EXTRA), ids=lambda cls: cls.__name__)
def test_pickle_round_trip_keeps_message_and_attributes(cls):
    err = cls("something broke at row 7", **EXTRA[cls])
    again = pickle.loads(pickle.dumps(err))
    assert type(again) is cls
    assert str(again) == str(err) and again.args == err.args
    assert vars(again) == vars(err) == EXTRA[cls]
