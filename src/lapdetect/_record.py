"""The frozen value type behind the package's record classes.

A record names its fields in ``__slots__``; its ``__init__`` checks its arguments
and stores them in field order with ``_set``. ``_Record`` gives what a frozen
dataclass gave: ``==`` by class and fields, ``hash``, the repr
``Name(field=value, ...)``, an ``AttributeError`` on assignment or deletion,
and ``__reduce__`` for ``pickle`` and ``copy``; as on a named tuple,
``_fields``, ``_asdict()`` and ``_replace()``.
"""


class _Record:
    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = cls.__match_args__ = cls.__slots__

    def _set(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()

    def _asdict(self) -> dict:
        return dict(zip(self._fields, self._values()))

    def _replace(self, **changes):
        return type(self)(**{**self._asdict(), **changes})
