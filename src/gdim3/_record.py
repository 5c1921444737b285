"""Frozen value records: the base of every value type in the package.

A subclass of `Record` names its fields as class annotations, in order,
with optional defaults.  Creating the class compiles three methods for
it, once:

- `__init__` takes the fields positionally or by keyword, writes them
  into the instance `__dict__` (past the `__setattr__` that refuses
  assignment), then calls the class's `__post_init__`, if it has one, to
  normalise (through `object.__setattr__`) or refuse;
- `__eq__` holds only for the same class with equal field values;
- `__hash__` is the hash of the tuple of field values.

`__repr__` reads `Class(field=value, ...)`, and no field can be assigned
or deleted once the record is built.
"""

def wrong_type(value, kind: type) -> str:
    """The refusal of a field value that is not exactly a `kind` (a bool is no int): the one
    wording of `validate`, of the JSON reader's base fields and of `FreeProductSpec`."""
    expected = {int: "an integer", bool: "true or false", str: "a string"}[kind]
    return f"expected {expected}, got {value!r}"


class Record:
    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        own = cls.__dict__
        cls._fields = fields = tuple(own.get("__annotations__", ()))
        params = "".join(f", {f}=_default_{f}" if f in own else f", {f}" for f in fields)
        mine = "(" + "".join(f"self.{f}, " for f in fields) + ")"
        theirs = "(" + "".join(f"other.{f}, " for f in fields) + ")"
        source = "\n".join([
            f"def __init__(self{params}):",
            "    _stored = self.__dict__" if fields else "    pass",
            *(f"    _stored[{f!r}] = {f}" for f in fields),
            "    self.__post_init__()" if hasattr(cls, "__post_init__") else "    pass",
            "def __eq__(self, other):",
            "    if other.__class__ is self.__class__:",
            f"        return {mine} == {theirs}",
            "    return NotImplemented",
            "def __hash__(self):",
            f"    return hash({mine})",
        ])
        namespace = {f"_default_{f}": own[f] for f in fields if f in own}
        exec(source, namespace)
        for name in ("__init__", "__eq__", "__hash__"):
            method = namespace[name]
            method.__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, method)

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
