"""Exception types shared across the package, and the integer predicate
behind every argument check."""


class SimplatError(Exception):
    """Base class for every error raised by this package."""


class InputError(SimplatError):
    """Bad arguments: wrong type, dimension mismatch, out-of-range value."""


class ParseError(InputError):
    """A complex document is malformed or violates the document schema."""


class ValidationError(SimplatError):
    """A simplex or complex violates a structural invariant."""


class ResourceLimitError(SimplatError):
    """A computation would go past the library's fixed envelope,
    counting.DEFAULT_ENUMERATION_LIMIT: an enumeration would scan more box
    points than that, or a lattice class whose h*-vector is asked for has a
    larger normalized volume."""


class IntegrityError(SimplatError):
    """An internal cross-check failed; this signals a bug, not bad input."""


def is_int(value: object) -> bool:
    """Whether value is a true int (bool excluded)."""
    return isinstance(value, int) and not isinstance(value, bool)
