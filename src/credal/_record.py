"""Shared methods of credal's slotted value classes.

`Slotted` gives any class whose state is its own `__slots__` pickle and copy
support. `Record` adds the value semantics of an immutable record, `repr`,
`==` and `hash` over the fields named in the class's `__match_args__`, as
plain methods, so no class code is generated at import.
"""

from __future__ import annotations


def _rebuild(cls: type, values: tuple) -> object:
    """An instance of `cls` with its slots set to `values`, in `__slots__` order, bypassing `__init__`."""
    obj = object.__new__(cls)
    for name, value in zip(cls.__slots__, values):
        object.__setattr__(obj, name, value)
    return obj


class Slotted:
    """Pickle, `copy` and `deepcopy` by the values of the subclass's own `__slots__`.

    The copy gets every slot as it was, derived ones too (a kept table, a
    frame's bit index), without re-running the constructor's checks, on every
    pickle protocol and whatever the class's `__setattr__` does.
    """

    __slots__ = ()

    def __reduce__(self) -> tuple:
        return _rebuild, (type(self), tuple(getattr(self, name) for name in self.__slots__))


class Record(Slotted):
    """An immutable value whose `__match_args__` are its constructor's parameters, in order.

    Those fields alone make its `repr` (`Name(field=value, ...)`), `==`
    (field tuples compared, only against the same class) and `hash` (of the
    field tuple); any other slot holds data derived from them. Assignment
    and deletion raise AttributeError, so `__init__` sets slots through
    `object.__setattr__`.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
