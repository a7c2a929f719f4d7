"""Frozen value classes without the dataclasses module.

@record turns a class whose body annotates its fields into a slotted,
immutable value class with what a frozen dataclass would give it:

- __init__ taking the fields positionally or by keyword, in declaration
  order, with the defaults written in the class body;
- __eq__ true only for an instance of the same class with equal fields;
- __hash__ of the tuple of fields;
- __repr__ of the form Name(field=value, ...);
- AttributeError on any assignment or deletion;
- pickling and copying, which rebuild the record through __init__.

A method that the class body defines itself is kept in place of the
generated one, as a frozen dataclass keeps it.  A name the class body lists
in __slots__ is an extra slot, not a field: __init__, equality, hash, repr,
pickling and copying ignore it, so a copy does not carry it.

The methods are closures over the field names, not generated source, so
importing the package neither loads dataclasses (and with it inspect, ast,
dis and tokenize) nor compiles code for each class.
"""

from operator import attrgetter


def record(cls):
    # cls.__annotations__, not cls.__dict__: since Python 3.14 (PEP 649) the
    # class body stores an annotate function and the dict is built on access
    names = tuple(cls.__annotations__)
    if not names:
        raise TypeError(f"@record class {cls.__qualname__} annotates no fields")
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    extra = cls.__dict__.get("__slots__", ())
    extra = (extra,) if isinstance(extra, str) else tuple(extra)
    # the descriptors of the body's own slots belong to cls, not to the new class
    body = {key: value for key, value in cls.__dict__.items()
            if key not in defaults and key not in extra and key not in ("__dict__", "__weakref__")}
    if "__eq__" in body and body["__hash__"] is None:
        del body["__hash__"]  # the None Python puts beside __eq__, not a choice
    body["__slots__"] = names + extra
    body["__qualname__"] = cls.__qualname__
    fields = attrgetter(*names)
    values = fields if len(names) > 1 else (lambda self: (fields(self),))
    set_field = object.__setattr__
    n = len(names)

    def __init__(self, *args, **kwargs):
        if len(args) > n:
            raise TypeError(f"{cls.__name__}() takes at most {n} positional "
                            f"arguments ({len(args)} given)")
        for name, value in zip(names, args):
            set_field(self, name, value)
        for name in names[len(args):]:
            if name in kwargs:
                set_field(self, name, kwargs.pop(name))
            elif name in defaults:
                set_field(self, name, defaults[name])
            else:
                raise TypeError(f"{cls.__name__}() missing argument {name!r}")
        if kwargs:
            raise TypeError(f"{cls.__name__}() got an unexpected or repeated "
                            f"argument {next(iter(kwargs))!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return values(self) == values(other)

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        return (f"{self.__class__.__qualname__}("
                + ", ".join(f"{name}={getattr(self, name)!r}" for name in names) + ")")

    def __reduce__(self):
        # pickle and copy rebuild through __init__, since __setattr__ refuses
        return self.__class__, values(self)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    for method in (__init__, __eq__, __hash__, __repr__, __reduce__, __setattr__,
                   __delattr__):
        if method.__name__ not in body:
            method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
            body[method.__name__] = method
    return type(cls)(cls.__name__, cls.__bases__, body)
