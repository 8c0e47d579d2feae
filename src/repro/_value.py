"""Immutable value records for the served path, without ``dataclasses``.

Importing :mod:`dataclasses` loads ``inspect``, ``ast``, ``dis``,
``tokenize`` and ``copy``, and each ``@dataclass`` generates its methods
through ``exec`` at import time; every server would pay for both in
resident memory (EXPERIMENTS.md E31).  The records a server builds share
the methods of :class:`Value` instead.
"""


class Value:
    """An immutable record whose fields are its ``__slots__``.

    A subclass lists its fields, in order, in ``__slots__`` and the
    defaults of the trailing ones in ``_defaults``.  It is built by
    position or by keyword, and compares, hashes, prints and pickles by
    its field tuple, as a frozen dataclass does.  :meth:`_check` runs
    once every field is set.
    """

    __slots__ = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs) -> None:
        fields = self.__slots__
        if len(args) > len(fields):
            raise TypeError(
                f"{type(self).__name__} takes {len(fields)} fields, "
                f"got {len(args)} positional arguments"
            )
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)
        for name in fields[len(args):]:
            if name in kwargs:
                value = kwargs.pop(name)
            elif name in self._defaults:
                value = self._defaults[name]
            else:
                raise TypeError(f"{type(self).__name__} needs field {name!r}")
            object.__setattr__(self, name, value)
        if kwargs:
            raise TypeError(
                f"{type(self).__name__} got unexpected or repeated "
                f"fields {sorted(kwargs)}"
            )
        self._check()

    def _check(self) -> None:
        """Validate the fields; a subclass may normalize one here through
        ``object.__setattr__``."""

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        # The guard above breaks pickle's default slot-state restore.
        return (type(self), self._fields())

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__
        )
        return f"{type(self).__qualname__}({inner})"
