"""Grid geometry, color maps and the multiset encode operation.

Conventions used throughout the package:

* Grid points are tuples of non-negative ints, one entry per axis.
* Linearization is row-major with axis 1 outermost, so a point
  ``(x1, ..., xn)`` on dims ``(M1, ..., Mn)`` has flat index
  ``x1*M2*...*Mn + ... + xn``.
* All indices are 0-based, including sub-grid indices.
* Codewords are canonical multisets: ascending tuples of color ids.
"""

from __future__ import annotations

import json
import math
import operator
from collections.abc import Iterator, Sequence

Point = tuple[int, ...]
Codeword = tuple[int, ...]


# ---------------------------------------------------------------------------
# Frozen records
#
# The package's value types are frozen records.  ``record`` builds them
# as the standard library's frozen dataclass did, with the same ``repr``
# and equality, but without loading ``inspect``, ``ast`` and ``dis``
# and at a fraction of the cost per class, which every CLI call pays when
# it imports the modules that define them.


class uncompared:
    """Default of a record field that ``==`` and ``hash`` leave out."""

    __slots__ = ("default",)

    def __init__(self, default):
        self.default = default


_MISSING = object()


def record(cls):
    """Make ``cls`` a frozen record of its annotated fields, in order.

    Adds ``__init__`` (which calls ``__post_init__`` if the class has
    one), ``__repr__`` (``Name(field=value, ...)``), ``__eq__`` and
    ``__hash__`` over the compared fields of two records of the same
    class, and a ``__setattr__``/``__delattr__`` that raise
    AttributeError; ``__post_init__`` sets a field with
    ``object.__setattr__``, or several at once with ``vars(self).update``.
    No ``__slots__``: an instance may carry derived state, set the same
    way, that is not a field.
    """
    names = tuple(cls.__dict__.get("__annotations__", ()))
    ns = {"_setattr": object.__setattr__}
    params, compared = [], []
    for name in names:
        value = cls.__dict__.get(name, _MISSING)
        if isinstance(value, uncompared):
            value = value.default
            setattr(cls, name, value)
        else:
            compared.append(name)
        if value is _MISSING:
            params.append(name)
        else:
            ns[f"_dflt_{name}"] = value
            params.append(f"{name}=_dflt_{name}")
    # One exec per class, of __init__ alone: generated, it costs no more per
    # instance than the dataclass one, where a generic one would cost about
    # half again; __eq__ and __hash__ read the compared fields in one C call.
    body = [f"  _setattr(self, {name!r}, {name})\n" for name in names]
    if hasattr(cls, "__post_init__"):
        body.append("  self.__post_init__()\n")
    exec(f"def __init__(self, {', '.join(params)}):\n{''.join(body)}\n", ns)
    ns["__init__"].__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = ns["__init__"]
    cls.__record_fields__ = names
    cls.__record_key__ = operator.attrgetter(*compared)
    cls.__repr__ = _record_repr
    cls.__eq__ = _record_eq
    cls.__hash__ = _record_hash
    cls.__setattr__ = _frozen_setattr
    cls.__delattr__ = _frozen_delattr
    return cls


def _record_repr(self) -> str:
    fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__record_fields__)
    return f"{self.__class__.__qualname__}({fields})"


def _record_eq(self, other):
    if other.__class__ is self.__class__:
        key = self.__record_key__
        return key(self) == key(other)
    return NotImplemented


def _record_hash(self) -> int:
    return hash(self.__record_key__(self))


def _frozen_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def tuple_record(cls=None, /, *, plural=None):
    """Make ``cls`` a frozen record stored as a tuple of its annotated fields.

    For a value made in bulk or on a hot path: the contract of ``record``
    (the same ``repr``, positional and keyword construction with the
    class's defaults, ``replace`` and ``asdict``, fields that cannot be set
    or deleted), on a ``tuple`` subclass with ``__slots__ = ()``.  It has no
    per-instance dict, reads each field with ``property(operator.itemgetter(i))``,
    and ``Name._make(fields)``, a bound ``tuple.__new__``, builds one from
    an iterable of exactly its fields, in order, in one C call that runs no
    Python code and checks no count.  A record equals, and hashes as, only
    a record of the same class and fields, not a plain tuple of them, and
    never orders: that raises ``TypeError("<plural> do not order")``, the
    plural "Name records" by default.  A foreign tuple subclass's ``==``
    runs first, and may say equal.  Every field is compared, and there is
    no ``__post_init__`` call.  Returns a new class made from ``cls``'s
    namespace, as ``collections.namedtuple`` makes one.
    """
    if cls is None:
        return lambda cls: tuple_record(cls, plural=plural)
    names = tuple(cls.__dict__.get("__annotations__", ()))
    ns = {"_new": tuple.__new__}
    params = []
    for name in names:
        if name in cls.__dict__:
            ns[f"_dflt_{name}"] = cls.__dict__[name]
            params.append(f"{name}=_dflt_{name}")
        else:
            params.append(name)
    exec(f"def __new__(_cls, {', '.join(params)}):\n"
         f"  return _new(_cls, ({''.join(name + ', ' for name in names)}))\n", ns)
    body = {key: value for key, value in cls.__dict__.items()
            if key not in names and key not in ("__dict__", "__weakref__")}
    message = f"{plural or cls.__name__ + ' records'} do not order"

    def _unordered(self, other):  # tuple's order, tried from either side, would rank records
        raise TypeError(message)

    body.update(
        {name: property(operator.itemgetter(i)) for i, name in enumerate(names)},
        __slots__=(), __new__=ns["__new__"], __record_fields__=names,
        _make=classmethod(tuple.__new__), __eq__=_tuple_record_eq,
        __ne__=object.__ne__,  # tuple's own would compare a record with a plain tuple
        __lt__=_unordered, __le__=_unordered, __gt__=_unordered, __ge__=_unordered,
        __hash__=tuple.__hash__, __repr__=_record_repr,
        __setattr__=_frozen_setattr, __delattr__=_frozen_delattr,
        __getnewargs__=_tuple_record_args, __qualname__=cls.__qualname__,
    )
    body["__new__"].__qualname__ = f"{cls.__qualname__}.__new__"
    return type(cls.__name__, (tuple,), body)


def _tuple_record_eq(self, other):
    if other.__class__ is self.__class__:
        return tuple.__eq__(self, other)
    return False if isinstance(other, tuple) else NotImplemented


def _tuple_record_args(self):  # copy, deepcopy and pickle rebuild a record from its fields
    return tuple(self)


def replace(obj, **changes):
    """A copy of record ``obj`` with the given fields changed; its class
    checks the result as it checks any new instance."""
    return obj.__class__(**{name: getattr(obj, name) for name in obj.__record_fields__} | changes)


def asdict(obj) -> dict:
    """Record ``obj`` as a dict of its fields, in order; a record in a
    field, or in a tuple there, becomes a dict too."""
    return {name: _unrecord(getattr(obj, name)) for name in obj.__record_fields__}


def _unrecord(value):
    if hasattr(value, "__record_fields__"):
        return asdict(value)
    if type(value) is tuple:
        return tuple(map(_unrecord, value))
    return value


class OutOfCodingAreaError(ValueError):
    """Tag lies outside the coding area of a flat grid."""


class PaletteError(ValueError):
    """Palette ids overlap or are otherwise inconsistent."""


class NotACodeword(ValueError):
    """Input multiset is not a codeword; ``step`` names the failing stage."""

    def __init__(self, step: str, detail: str = ""):
        self.step = step
        super().__init__(f"not a codeword ({step}){': ' + detail if detail else ''}")


def take(table, keys) -> tuple:
    """``tuple(table[k] for k in keys)`` for a sequence of keys, looked up
    in one C call (``operator.itemgetter``), a 1-tuple for one key."""
    if len(keys) < 2:  # itemgetter gives one key's bare value, and refuses none
        return tuple(map(table.__getitem__, keys))
    return operator.itemgetter(*keys)(table)


def canonical(colors) -> Codeword:
    """Canonical form of a color multiset: ascending tuple."""
    return tuple(sorted(colors))


# Codeword wire format: comma-separated color ids, in canonical order.


def format_codeword(w) -> str:
    return ",".join(map(str, canonical(w)))


def parse_codeword(text: str) -> Codeword:
    """The canonical codeword of its wire format.  Every comma-separated
    token is a color id as ``parse_int`` reads it, so an empty one (as in
    "0,,4", ",0,4," or "") raises ``NotACodeword("parse", ...)``, as a
    misspelled one does, rather than being dropped."""
    try:
        return canonical(map(parse_int, text.split(",")))
    except ValueError as e:
        raise NotACodeword("parse", str(e)) from None


def parse_int(text: str) -> int:
    """An integer spelled as written: an optional sign and ASCII digits,
    with surrounding spaces.  ``int()`` also reads "1_0" as 10 and "٧" as 7;
    here they raise the ValueError ``int()`` gives a token it refuses."""
    token = text.strip()
    digits = token[1:] if token[:1] in ("+", "-") else token
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return int(token)


@record
class GridSpec:
    """Cyclic or flat integer grid with dims M = (M_1, ..., M_n)."""

    dims: tuple[int, ...]
    cyclic: bool = True

    def __post_init__(self):
        object.__setattr__(self, "dims", _positive_dims(self.dims, "grid"))

    @property
    def n(self) -> int:
        return len(self.dims)

    @property
    def volume(self) -> int:
        return math.prod(self.dims)

    def index(self, point: Point) -> int:
        """Row-major flat index of a point (axis 1 outermost)."""
        if len(point) != len(self.dims):
            raise _arity_error(point, self.dims)
        idx = 0
        for x, d in zip(point, self.dims):
            if not 0 <= x < d:
                raise ValueError(f"point {point} outside grid {self.dims}")
            idx = idx * d + x
        return idx

    def point(self, index: int) -> Point:
        coords = []
        for d in reversed(self.dims):
            coords.append(index % d)
            index //= d
        return tuple(reversed(coords))

    def points(self) -> Iterator[Point]:
        for i in range(self.volume):
            yield self.point(i)

    def wrap(self, point: Sequence[int]) -> Point:
        if len(point) != len(self.dims):
            raise _arity_error(point, self.dims)
        return tuple(x % d for x, d in zip(point, self.dims))


def _positive_dims(dims, what: str) -> tuple[int, ...]:
    """``dims`` as ints >= 1; ValueError for a value that is not an int, as 24.9 or true."""
    out = int_tuple(dims, f"{what} dims")
    if not out or min(out) < 1:
        raise ValueError(f"{what} dims must be positive: {out}")
    return out


_INT = frozenset({int})


def int_tuple(values, what: str) -> tuple[int, ...]:
    """``values`` as a tuple; ValueError for one that is not an int, such as
    1.9, which ``int()`` would truncate to 1, or true and 4.0, which compare
    equal to 1 and 4.  The one check on integers that come from outside the
    program: map files, library callers, the CLI's JSON options."""
    out = tuple(values)
    if not _INT.issuperset(map(type, out)):
        bad = next(x for x in out if type(x) is not int)
        raise ValueError(f"{what} must be integers, got {json.dumps(bad, default=repr)}")
    return out


def _arity_error(point, dims) -> ValueError:
    # index and wrap test the length themselves: zip(..., strict=True) costs
    # several times more per call, and encode calls both for every block point.
    return ValueError(f"point {tuple(point)} has {len(point)} coordinates, grid has {len(dims)}")


@record
class BlockSpec:
    """Block size m = (m_1, ..., m_n); same dimension as its grid."""

    dims: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "dims", _positive_dims(self.dims, "block"))

    @property
    def volume(self) -> int:
        return math.prod(self.dims)

    def check_against(self, grid: GridSpec) -> None:
        if len(self.dims) != grid.n:
            raise ValueError("block and grid dimension mismatch")
        if any(m > M for m, M in zip(self.dims, grid.dims)):
            raise ValueError(f"block {self.dims} exceeds grid {grid.dims}")


@tuple_record(plural="palette entries")
class PaletteEntry:
    """Metadata for one color id.

    ``subgrid`` is the sub-grid index the color belongs to (a 1-tuple for
    1D sunmao constructions, the offset vector J for unitary ones), or
    None for hand-made maps.  ``factors`` is the per-axis factor tuple for
    product colors.  ``label`` is a free-form human name such as ``a_1``.

    A ``tuple_record``: a map holds one entry per color id, and the
    palette builders make them with ``PaletteEntry._make``, one C call and
    no Python frame an entry.
    """

    id: int
    subgrid: tuple | None = None
    factors: tuple | None = None
    label: str = ""


_entry_id = PaletteEntry.id.fget  # the id of an entry, in one C call


@record
class ColorMap:
    """Total color mapping on a grid, with construction metadata.

    ``colors`` is the dense row-major array of color ids; ``palette``
    carries one entry per color id; ``params`` is the construction
    descriptor (None for hand-made maps).  Treat a map as immutable,
    ``params`` included, as the map keeps derived state that is no field,
    in ``==`` or in JSON: the set of its color ids (``_color_ids``), made
    once by the palette check, for ``to_json`` and the oracle; the checked
    value of its params (``_checked_params``), kept by ``params.read``
    and by the constructions that build a map from params; and the
    codec's compiled decoder (``_decoder``).
    """

    grid: GridSpec
    block: BlockSpec
    colors: tuple[int, ...]
    palette: tuple[PaletteEntry, ...]
    params: dict | None = None

    def __post_init__(self):
        self.block.check_against(self.grid)
        if len(self.colors) != self.grid.volume:
            raise ValueError(
                f"colors array has {len(self.colors)} entries, "
                f"grid has {self.grid.volume} points"
            )
        known = set(map(_entry_id, self.palette))
        if len(known) != len(self.palette):
            raise PaletteError("duplicate palette ids")
        used = set(self.colors)
        if not used <= known:
            raise PaletteError(f"colors reference ids missing from palette: {sorted(used - known)[:5]}")
        object.__setattr__(self, "_color_ids", used)

    def color_at(self, point: Point) -> int:
        return self.colors[self.grid.index(point)]


def block_points(grid: GridSpec, block: BlockSpec, tag: Point) -> list[Point]:
    """Points of the block tagged at ``tag``, in row-major offset order.

    Cyclic grids wrap; flat grids reject tags outside the coding area.
    """
    block.check_against(grid)
    if len(tag) != grid.n:
        raise ValueError(f"tag {tuple(tag)} has {len(tag)} coordinates, grid has {grid.n}")
    if not grid.cyclic:
        if any(not 0 <= t <= M - m for t, M, m in zip(tag, grid.dims, block.dims)):
            raise OutOfCodingAreaError(f"tag {tag} outside flat coding area")
    else:
        tag = grid.wrap(tag)
    offsets = GridSpec(block.dims)
    return [grid.wrap(tuple(t + o for t, o in zip(tag, off))) for off in offsets.points()]


def coding_area_shape(grid: GridSpec, block: BlockSpec) -> GridSpec:
    """Grid of the tags at which a block is defined: the whole grid if
    cyclic, else M_i - m_i + 1 tags per axis."""
    block.check_against(grid)
    if grid.cyclic:
        return grid
    return GridSpec(tuple(M - m + 1 for M, m in zip(grid.dims, block.dims)))


def coding_area(grid: GridSpec, block: BlockSpec) -> Iterator[Point]:
    """Tags at which a block is defined, in row-major order."""
    return coding_area_shape(grid, block).points()


def coding_area_size(grid: GridSpec, block: BlockSpec) -> int:
    return coding_area_shape(grid, block).volume


def encode(cmap: ColorMap, tag: Point) -> Codeword:
    """Color codeword of the block tagged at ``tag``: a canonical multiset."""
    if isinstance(tag, int):
        tag = (tag,)
    return canonical(cmap.color_at(p) for p in block_points(cmap.grid, cmap.block, tag))


# ---------------------------------------------------------------------------
# JSON interchange

_VERSION = 1


def to_json(cmap: ColorMap) -> str:
    """Serialize a ColorMap to the fixed-field-order JSON document, byte for
    byte as ``json.dumps`` of it, the color array joined from one string per
    distinct id: the map's set of color ids, made once when the map was.
    A color id that is not an int raises the ValueError ``from_json``
    gives, unless it equals an int id met before it, whose text it takes;
    a palette id that is not an int raises it always.  Each palette entry
    is read by unpacking its four fields."""
    head = json.dumps({
        "version": _VERSION,
        "grid": {"M": list(cmap.grid.dims), "cyclic": cmap.grid.cyclic},
        "block": {"m": list(cmap.block.dims)},
    })
    ids = int_tuple(cmap._color_ids, "color ids")
    int_tuple(map(_entry_id, cmap.palette), "palette ids")
    text = dict(zip(ids, map(str, ids)))
    tail = json.dumps({
        "palette": [
            {"id": i, "subgrid": None if s is None else list(s),
             "factors": None if f is None else list(f), "label": label}
            for i, s, f, label in cmap.palette
        ],
        "params": cmap.params,
    })
    return f'{head[:-1]}, "colors": [{", ".join(take(text, cmap.colors))}], {tail[1:]}'


def from_json(text: str) -> ColorMap:
    """Parse a map document; ValueError for malformed JSON or a document
    of the wrong shape."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError(f"map document must be a JSON object, got {type(doc).__name__}")
    if doc.get("version") != _VERSION:
        raise ValueError(f"unsupported version {doc.get('version')}")
    try:
        entry = PaletteEntry._make
        palette = tuple([
            entry((e["id"], None if (s := e.get("subgrid")) is None else tuple(s),
                   None if (f := e.get("factors")) is None else tuple(f), e.get("label", "")))
            for e in doc["palette"]
        ])
        cyclic = doc["grid"]["cyclic"]
        if not isinstance(cyclic, bool):
            raise ValueError(f"grid.cyclic must be true or false, got {cyclic!r}")
        # An id that is not an int (4.0, true, Infinity, "4") can equal an int id
        # or itself, but prints as no codeword parses.
        colors = int_tuple(doc["colors"], "color ids")
        int_tuple(map(_entry_id, palette), "palette ids")
        return ColorMap(
            grid=GridSpec(tuple(doc["grid"]["M"]), cyclic),
            block=BlockSpec(tuple(doc["block"]["m"])),
            colors=colors,
            palette=palette,
            params=doc.get("params"),
        )
    except (KeyError, TypeError, AttributeError) as e:
        raise ValueError(f"malformed map document: {e!r}") from e
