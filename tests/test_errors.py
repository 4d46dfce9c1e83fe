"""Each toolkit error has one exit code: it is exactly one of a configuration, data or numerical error."""
import inspect

from fingerloc import errors
from fingerloc.errors import ConfigError, DataError, FingerlocError, NumericalError

KINDS = (ConfigError, DataError, NumericalError)


def test_every_error_is_exactly_one_kind():
    classes = [c for _, c in inspect.getmembers(errors, inspect.isclass)
               if c.__module__ == errors.__name__ and c not in (FingerlocError, *KINDS)]
    assert classes
    for cls in classes:
        assert sum(issubclass(cls, kind) for kind in KINDS) == 1, cls.__name__
