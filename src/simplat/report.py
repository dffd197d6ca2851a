"""One JSON form for every report, and the package's one JSON encoder.

A report is a frozen dataclass that inherits Report.  Its JSON form is its
dataclass fields by name: a nested report is an object, a Fraction its
exact string and a tuple a list.  to_json prints it with sorted keys and a
2-space indent, and Report.as_dict() is that text decoded, so the dict and
the printed JSON cannot differ.
"""

import json
from fractions import Fraction


class Report:
    """Base of the report dataclasses.  A report that prints a derived
    value extends _form by that one key."""

    def _form(self) -> dict:
        """The dataclass fields by name, ready for the encoder."""
        return {name: _encodable(getattr(self, name)) for name in self.__dataclass_fields__}

    def as_dict(self) -> dict:
        """The printed JSON decoded: lists for tuples, strings for Fractions."""
        return json.loads(to_json(self))


def _encodable(value):
    """A report as its form, a Fraction as its exact string, a tuple of
    either as a list; anything else as it is, since the encoder prints an
    int tuple as a list.  Exact type tests, as Fraction's ABC is slow."""
    kind = type(value)
    if kind is int or kind is str or kind is bool:
        return value
    if kind is Fraction:
        return str(value)
    if kind is tuple:
        if value and (type(value[0]) is Fraction or isinstance(value[0], Report)):
            return [_encodable(v) for v in value]
        return value
    return value._form() if isinstance(value, Report) else value


def to_json(value) -> str:
    """JSON text of a report or a JSON-ready value: sorted keys, 2-space indent."""
    return json.dumps(_encodable(value), indent=2, sort_keys=True)
