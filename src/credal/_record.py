"""The one base of credal's immutable value classes.

`Record` gives `repr`, `==` and `hash` over a class's fields, refuses
assignment and deletion, and pickles and copies an instance by its slots,
all as plain methods, so no class code is generated at import.
"""

from __future__ import annotations


def _rebuild(cls: type, values: tuple) -> object:
    """An instance of `cls` with its slots set to `values`, in `__slots__` order, bypassing `__init__`."""
    obj = object.__new__(cls)
    for name, value in zip(cls.__slots__, values):
        object.__setattr__(obj, name, value)
    return obj


class Record:
    """An immutable value whose `__match_args__` are its constructor's parameters, in order.

    Those fields make its `repr` (`Name(field=value, ...)`) and `_values`,
    the tuple that `==` compares (only against the same class) and `hash`
    hashes; a class may override either, and any other slot holds data
    derived from the fields. Assignment and deletion raise AttributeError,
    so `__init__` sets slots through `object.__setattr__`. Pickle, `copy`
    and `deepcopy` restore every slot of the class's own `__slots__` as it
    was, derived ones too (a kept table, a frame's bit index), without
    re-running the constructor's checks, on every pickle protocol.
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

    def __reduce__(self) -> tuple:
        return _rebuild, (type(self), tuple(getattr(self, name) for name in self.__slots__))
