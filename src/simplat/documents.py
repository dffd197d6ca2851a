"""JSON complex documents: strict parsing, loading with validation, and
canonical serialization through report.to_json.

A document is a single JSON object with keys exactly ambient_dim, vertices,
maximal_simplices.  Coordinates must be integers within the JSON-safe range
(|v| <= 2^53 - 1) so documents stay portable across tools.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .complexes import MAX_AMBIENT_DIM, SimplicialComplex, close_under_faces, validate
from .errors import InputError, ParseError, ValidationError, is_int, shown
from .report import to_json

DOCUMENT_KEYS = ("ambient_dim", "vertices", "maximal_simplices")
MAX_SAFE_INT = 2 ** 53 - 1


@dataclass(frozen=True)
class ComplexDocument:
    """Parsed document: vertex order and maximal index sets as given."""

    ambient_dim: int
    vertices: tuple[tuple[int, ...], ...]
    maximal_simplices: tuple[tuple[int, ...], ...]

    def as_dict(self) -> dict:
        for v in self.vertices:
            for c in v:
                if abs(c) > MAX_SAFE_INT:
                    raise ParseError(
                        f"coordinate {shown(c)} exceeds the JSON-safe integer range")
        return {"ambient_dim": self.ambient_dim,
                "vertices": [list(v) for v in self.vertices],
                "maximal_simplices": [list(f) for f in self.maximal_simplices]}


def _unique_keys(pairs) -> dict:
    """A JSON object as a dict; json.loads would keep the last of two equal
    keys, so a repeated key is refused."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ParseError(f"document repeats the key {key!r}")
        data[key] = value
    return data


def parse_document(source) -> ComplexDocument:
    """Parse a JSON string/bytes or an already-decoded dict into a document,
    enforcing the schema strictly; text json cannot read is refused too.
    Bytes are decoded as strict UTF-8 first, as a document file is read,
    so a byte-order mark or a UTF-16/32 encoding is refused here as well."""
    if isinstance(source, bytes):
        try:
            source = source.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"unreadable JSON: document is not UTF-8 text: {exc}") from exc
    if isinstance(source, str):
        try:
            data = json.loads(source, object_pairs_hook=_unique_keys)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc}") from exc
        except (ValueError, RecursionError) as exc:
            raise ParseError(f"unreadable JSON: {exc}") from exc
    elif isinstance(source, dict):
        data = source
    else:
        raise ParseError(f"document must be JSON text or a dict, got {type(source).__name__}")
    if not isinstance(data, dict):
        raise ParseError("document must be a JSON object")
    missing = [k for k in DOCUMENT_KEYS if k not in data]
    extra = [k for k in data if k not in DOCUMENT_KEYS]
    if missing or extra:
        raise ParseError(
            f"document keys must be exactly {list(DOCUMENT_KEYS)}; "
            f"missing {missing}, unexpected {extra}")

    dim = data["ambient_dim"]
    if not is_int(dim) or not 1 <= dim <= MAX_AMBIENT_DIM:
        raise ParseError(
            f"ambient_dim must be an integer in [1, {MAX_AMBIENT_DIM}], got {shown(dim)}")

    raw_vertices = data["vertices"]
    if not isinstance(raw_vertices, list):
        raise ParseError("vertices must be a list of coordinate lists")
    vertices = []
    for i, v in enumerate(raw_vertices):
        if not isinstance(v, list) or len(v) != dim:
            raise ParseError(f"vertex {i} must be a list of {dim} coordinates, got {shown(v)}")
        for c in v:
            if not is_int(c):
                raise ParseError(f"vertex {i} has a non-integer coordinate {shown(c)}")
            if abs(c) > MAX_SAFE_INT:
                raise ParseError(
                    f"vertex {i} coordinate {shown(c)} exceeds the JSON-safe integer range")
        vertices.append(tuple(v))

    raw_faces = data["maximal_simplices"]
    if not isinstance(raw_faces, list):
        raise ParseError("maximal_simplices must be a list of index lists")
    faces = []
    for j, f in enumerate(raw_faces):
        if not isinstance(f, list) or not f:
            raise ParseError(f"maximal simplex {j} must be a nonempty list of indices")
        for i in f:
            if not is_int(i) or not 0 <= i < len(vertices):
                raise ParseError(f"maximal simplex {j} has a bad vertex index {shown(i)}")
        if len(set(f)) != len(f):
            raise ParseError(f"maximal simplex {j} repeats a vertex index")
        faces.append(tuple(f))

    return ComplexDocument(ambient_dim=dim, vertices=tuple(vertices),
                           maximal_simplices=tuple(faces))


def load_complex(source) -> SimplicialComplex:
    """Parse, build the face closure, and validate; raises ParseError or
    ValidationError (with the failing condition named)."""
    doc = source if isinstance(source, ComplexDocument) else parse_document(source)
    complex_ = close_under_faces(doc.maximal_simplices, doc.vertices,
                                 ambient_dim=doc.ambient_dim)
    report = validate(complex_)
    if not report.passed:
        raise ValidationError(report.describe())
    return complex_


def read_document(path) -> ComplexDocument:
    """Read and parse a document file, which must be UTF-8 text: its bytes
    go to parse_document, so a file and its bytes get the same verdict."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    return parse_document(data)


def complex_to_document(c: SimplicialComplex) -> ComplexDocument:
    """Serialize: vertex order preserved, maximal faces canonicalized as
    sorted index lists in lexicographic order."""
    return ComplexDocument(ambient_dim=c.ambient_dim,
                           vertices=tuple(c.vertices),
                           maximal_simplices=c.maximal_faces)


def document_to_json(doc: ComplexDocument) -> str:
    """Deterministic JSON text for a document."""
    return to_json(doc.as_dict()) + "\n"
