"""Records: classes whose annotated fields give ``__init__``, ``repr``, ``==``
and, when frozen, ``hash``.

The part of ``dataclasses`` that ringlab uses, from methods that every
record shares, so a record class compiles no code and ringlab loads neither
``dataclasses`` nor ``inspect``.  It behaves as ``dataclasses`` does: ``==``
compares the compare-fields tuple of two records of one class, a frozen
record hashes that tuple (so sets and dicts of records keep their order),
``repr`` is ``Name(f=..., ...)``, and ``__post_init__`` is looked up at each
construction.  Records keep their ``__dict__``, which ``cached_property``
writes into.
"""

from operator import attrgetter

_MISSING = object()


class FrozenInstanceError(AttributeError):
    """Assignment to, or deletion of, an attribute of a frozen record."""


class field:
    """A field's default or default factory, and whether ``__init__`` takes
    it, ``repr`` shows it and ``==`` compares it."""

    def __init__(self, *, default=_MISSING, default_factory=None, init=True, repr=True,
                 compare=True):
        self.default, self.default_factory = default, default_factory
        self.init, self.repr, self.compare = init, repr, compare


def record(cls=None, *, frozen=True):
    """Make cls a record of its annotated fields: ``@record`` for a frozen
    record, ``@record(frozen=False)`` for a mutable, unhashable one."""
    if cls is None:
        return lambda c: record(c, frozen=frozen)
    specs = []
    for name in cls.__dict__.get("__annotations__", {}):
        spec = cls.__dict__.get(name, _MISSING)
        spec = spec if isinstance(spec, field) else field(default=spec)
        if spec.default is not _MISSING:
            setattr(cls, name, spec.default)
        elif name in cls.__dict__:
            delattr(cls, name)
        specs.append((name, spec))
    compared = [name for name, spec in specs if spec.compare]
    cls._record = (
        tuple(name for name, spec in specs if spec.init),
        tuple((name, spec.default, spec.default_factory) for name, spec in specs),
        tuple(name for name, spec in specs if spec.repr),
        attrgetter(*compared) if len(compared) > 1
        else lambda self: tuple(getattr(self, name) for name in compared),
    )
    cls.__init__, cls.__repr__, cls.__eq__ = _init, _repr, _eq
    cls.__hash__ = _hash if frozen else None
    if frozen:
        cls.__setattr__ = cls.__delattr__ = _frozen
    return cls


def replace(obj, **changes):
    """A new record like obj with the given fields changed; its
    ``__post_init__`` runs."""
    for name in obj._record[0]:
        changes.setdefault(name, getattr(obj, name))
    return obj.__class__(**changes)


def _init(self, *args, **kwargs):
    names, fields, _, _ = self._record
    values = dict(zip(names, args))
    for name in kwargs:
        if name in values or name not in names:
            raise TypeError(f"{type(self).__qualname__}() got a bad argument {name!r}")
    if len(args) > len(names):
        raise TypeError(f"{type(self).__qualname__}() takes {len(names)} arguments")
    values.update(kwargs)
    attrs = self.__dict__
    for name, default, factory in fields:
        if name in values:
            attrs[name] = values[name]
        elif factory is not None:
            attrs[name] = factory()
        elif default is not _MISSING:
            attrs[name] = default
        else:
            raise TypeError(f"{type(self).__qualname__}() is missing the field {name!r}")
    post_init = getattr(self, "__post_init__", None)
    if post_init is not None:
        post_init()


def _repr(self):
    shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._record[2])
    return f"{type(self).__qualname__}({shown})"


def _eq(self, other):
    if other.__class__ is self.__class__:
        key = self._record[3]
        return key(self) == key(other)
    return NotImplemented


def _hash(self):
    return hash(self._record[3](self))


def _frozen(self, name, *value):
    raise FrozenInstanceError(f"cannot {'assign to' if value else 'delete'} field {name!r}")
