"""JSON document format for sheaved spaces and reports.

Scalars cross the boundary as strings ("3", "-1/2", residues mod p) so
no float ever enters; the ring's `coerce` reads them by the one scalar
grammar of :mod:`posheaf.exact_linalg`, and its refusal is the
document's.  Matrices are row-major lists of rows.  An absent
sheaf block means the constant rank-1 sheaf.  Field tags: "Q", "GF:<p>"
with p prime in ASCII digits, or "Z": constant integral coefficients,
so a "Z" document is its poset and a sheaf block in it is checked for
structure only.  Element names hold no whitespace and no "->".
"""

from __future__ import annotations

import json
import re
from collections import namedtuple
from json.encoder import encode_basestring_ascii as _quote
from typing import Optional

from . import __version__
from .exact_linalg import GF, QQ, LinalgError, Matrix
from .poset import Poset, PosetError, build_poset
from .sheaf import Sheaf, SheavedSpace, SheafError, constant_sheaf

MAP_KEY_SEP = "->"
_NAME_RE = re.compile(r"[^\s]+")
# int() would also take a sign, whitespace, "_" and non-ASCII digits
_FIELD_RE = re.compile(r"GF:([0-9]+)")


class DocumentError(Exception):
    """Structural problem in a space document."""


class SpaceDocument(namedtuple("SpaceDocument", "field_tag elements covers stalks maps",
                               defaults=(None, None))):
    """A parsed document: `field_tag` ("Q", "GF:<p>" or "Z"), the
    `elements`, the `covers` as (lower, upper) pairs, and the sheaf
    block: `stalks` (name -> dimension) and `maps` ((lower, upper) ->
    rows of scalar strings), both None for the constant rank-1 sheaf."""

    __slots__ = ()

    def has_sheaf_block(self) -> bool:
        return self.stalks is not None


def _parse_field_tag(tag):
    if tag == "Q":
        return QQ
    if tag == "Z":
        return None  # integers: constant-coefficient commands only
    match = _FIELD_RE.fullmatch(tag) if isinstance(tag, str) else None
    if match:
        try:
            return GF(int(match[1]))
        except ValueError:  # more digits than int() takes
            raise DocumentError(f"bad field tag {tag!r}")
        except LinalgError as e:
            raise DocumentError(str(e))
    raise DocumentError(f"bad field tag {tag!r} (want 'Q', 'GF:<p>' or 'Z')")


def _check_name(name):
    if not isinstance(name, str) or not _NAME_RE.fullmatch(name) or MAP_KEY_SEP in name:
        raise DocumentError(
            f"bad element name {name!r}: no whitespace or '{MAP_KEY_SEP}' allowed"
        )


def parse_space(data) -> SpaceDocument:
    """Validate raw JSON data into a SpaceDocument (structure only)."""
    if not isinstance(data, dict):
        raise DocumentError("document must be a JSON object")
    for key in ("field", "elements", "covers"):
        if key not in data:
            raise DocumentError(f"missing key {key!r}")
    unknown = set(data) - {"field", "elements", "covers", "sheaf", "generator"}
    if unknown:
        raise DocumentError(f"unknown keys: {sorted(unknown)}")
    _parse_field_tag(data["field"])
    elements = data["elements"]
    if not isinstance(elements, list):
        raise DocumentError("'elements' must be a list")
    for e in elements:
        _check_name(e)
    known = set(elements)
    if len(known) != len(elements):
        raise DocumentError("duplicate element names")
    if not isinstance(data["covers"], list):
        raise DocumentError("'covers' must be a list")
    covers = []
    for c in data["covers"]:
        if not (isinstance(c, list) and len(c) == 2):
            raise DocumentError(f"bad cover entry {c!r}")
        lo, hi = c
        if not (isinstance(lo, str) and isinstance(hi, str)):
            raise DocumentError(f"cover endpoints must be element names, got {c!r}")
        if lo not in known or hi not in known:
            raise DocumentError(f"cover {c!r} references unknown elements")
        covers.append((lo, hi))
    stalks = maps = None
    if "sheaf" in data and data["sheaf"] is not None:
        block = data["sheaf"]
        if not isinstance(block, dict) or set(block) - {"stalks", "maps"}:
            raise DocumentError("'sheaf' must be an object with 'stalks' and 'maps'")
        for key in ("stalks", "maps"):
            if not isinstance(block.get(key, {}), dict):
                raise DocumentError(f"'sheaf.{key}' must be an object")
        stalks = {}
        for name, dim in block.get("stalks", {}).items():
            if name not in known:
                raise DocumentError(f"stalk for unknown element {name!r}")
            # bool is a subclass of int, but true is not a dimension
            if not isinstance(dim, int) or isinstance(dim, bool) or dim < 0:
                raise DocumentError(f"bad stalk dimension for {name!r}: {dim!r}")
            stalks[name] = dim
        missing = known - set(stalks)
        if missing:
            raise DocumentError(f"missing stalk dimensions: {sorted(missing)}")
        maps = {}
        cover_set = set(covers)
        for key, rows in block.get("maps", {}).items():
            parts = key.split(MAP_KEY_SEP)
            if len(parts) != 2:
                raise DocumentError(f"bad map key {key!r}")
            cov = (parts[0], parts[1])
            if cov not in cover_set:
                raise DocumentError(f"map key {key!r} is not a cover")
            if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
                raise DocumentError(f"map {key!r} must be a list of rows")
            maps[cov] = rows
        missing_maps = cover_set - set(maps)
        if missing_maps:
            raise DocumentError(f"missing maps for covers: {sorted(missing_maps)}")
    return SpaceDocument(data["field"], tuple(elements), tuple(covers), stalks, maps)


def load_space(path) -> SpaceDocument:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as e:
        raise DocumentError(f"cannot read {path}: {e}")
    except ValueError as e:  # bad JSON, bad UTF-8, an int past Python's digit limit
        raise DocumentError(f"invalid JSON in {path}: {e}")
    except RecursionError:
        raise DocumentError(f"JSON in {path} is nested too deeply")
    return parse_space(data)


def _parse_scalar(s, ring):
    if not isinstance(s, str):
        raise DocumentError(f"scalar entries must be strings, got {s!r}")
    try:
        return ring.coerce(s)
    except LinalgError as e:
        raise DocumentError(str(e))


def document_poset(doc: SpaceDocument) -> Poset:
    try:
        return build_poset(doc.elements, doc.covers)
    except PosetError as e:
        raise DocumentError(str(e))


def document_space(doc: SpaceDocument) -> SheavedSpace:
    """Build the sheaved space (shape validation only; commutativity is
    the caller's concern).  A "Z" document is its poset: it gets the
    constant rank-1 sheaf over Q, whether or not it has a sheaf block,
    and the block is not built.

    Each distinct map literal of a given shape is parsed once: covers
    that repeat it share one Matrix, and with it its composites and its
    rank.  A literal is kept for reuse only once it has parsed, so the
    first bad map in document order is the one reported.
    """
    ring = _parse_field_tag(doc.field_tag)
    poset = document_poset(doc)
    if ring is None or not doc.has_sheaf_block():
        return SheavedSpace(poset, constant_sheaf(poset, ring or QQ, 1))
    dims = doc.stalks
    maps = {}
    parsed = {}  # (rows, cols, rows of scalar strings) -> Matrix
    for (u, v), rows in doc.maps.items():
        try:
            key = (dims[v], dims[u], tuple(map(tuple, rows)))
            m = parsed.get(key)
        except TypeError:  # an unhashable entry, refused by the parse below
            key = m = None
        if m is None:
            entries = [[_parse_scalar(x, ring) for x in row] for row in rows]
            try:
                m = Matrix(ring, dims[v], dims[u], entries)
            except LinalgError:
                raise DocumentError(
                    f"map {u}{MAP_KEY_SEP}{v} does not match stalk dimensions "
                    f"{dims[v]}x{dims[u]}"
                )
            if key is not None:
                parsed[key] = m
        maps[(u, v)] = m
    try:
        return SheavedSpace(poset, Sheaf(poset, ring, dims, maps))
    except SheafError as e:
        raise DocumentError(str(e))


def space_to_data(sp: SheavedSpace, field_tag: str, generator: Optional[dict] = None) -> dict:
    """Serialize a sheaved space canonically (sorted covers and keys).

    Raises DocumentError for an entry with more digits than Python turns
    into a string (`sys.get_int_max_str_digits`), which composing long
    maps can produce; such an entry could not be read back either.
    Covers that share a Matrix share one list of rows in the result.
    """
    f = sp.sheaf
    maps = {}
    written = {}  # id of a Matrix -> its rows as strings
    for (u, v) in sorted(sp.poset.covers):
        key = f"{u}{MAP_KEY_SEP}{v}"
        m = f.cover_maps[(u, v)]
        rows = written.get(id(m))
        if rows is None:
            try:
                rows = written[id(m)] = [[str(x) for x in row] for row in m.entries]
            except ValueError:
                raise DocumentError(f"map {key} has an entry too long to write") from None
        maps[key] = rows
    return {
        "generator": generator or {"tool": "posheaf", "version": __version__},
        "field": field_tag,
        "elements": list(sp.poset.elements),
        "covers": [list(c) for c in sorted(sp.poset.covers)],
        "sheaf": {
            "stalks": {e: f.stalk_dim[e] for e in sorted(sp.poset.elements)},
            "maps": maps,
        },
    }


def dump_json(data) -> str:
    """`json.dumps(data, indent=2) + "\\n"`, byte for byte, for JSON data
    (dict keys are strings).

    `indent` makes `json.dumps` take its pure-Python encoder; this writer
    quotes strings with the C one, joins a list of strings in one call,
    and writes a container that recurs at the same depth once: the rows
    that :func:`space_to_data` shares between covers.
    """
    memo = {}  # (id of a container, its indentation) -> its text

    def value(obj, pad):
        t = type(obj)
        if t is str:
            return _quote(obj)
        if t is int:
            return int.__repr__(obj)
        if not isinstance(obj, (list, tuple, dict)):
            return json.dumps(obj)
        if not obj:
            return "{}" if isinstance(obj, dict) else "[]"
        text = memo.get((id(obj), pad))
        if text is None:
            inner = pad + "  "
            sep = ",\n" + inner
            if isinstance(obj, dict):
                body = sep.join([f"{_quote(k)}: {value(v, inner)}" for k, v in obj.items()])
                text = "{\n" + inner + body + "\n" + pad + "}"
            else:
                try:
                    body = sep.join(map(_quote, obj))
                except TypeError:  # not a list of strings only
                    body = sep.join([value(v, inner) for v in obj])
                text = "[\n" + inner + body + "\n" + pad + "]"
            memo[(id(obj), pad)] = text
        return text

    return value(data, "") + "\n"
