"""Exception types shared across the package, check_int, the one check of
the library's int arguments, and shown, the repr error messages use."""


class SimplatError(Exception):
    """Base class for every error raised by this package."""


class InputError(SimplatError):
    """Bad arguments: wrong type, dimension mismatch, out-of-range value."""


class ParseError(InputError):
    """A complex document is malformed or violates the document schema."""


class ValidationError(SimplatError):
    """A simplex or complex violates a structural invariant."""


class ResourceLimitError(SimplatError):
    """A computation would go past one of the library's fixed envelopes:
    an enumeration would scan more box points than
    counting.DEFAULT_ENUMERATION_LIMIT, a lattice class whose h*-vector is
    asked for has a larger normalized volume, a probe would count more
    rows than verify.PROBE_ROW_LIMIT, a generated grid would have more
    maximal simplices than complexes.GENERATE_SIMPLEX_LIMIT, or validation
    would compare more pairs of maximal faces than
    complexes.VALIDATE_PAIR_LIMIT."""


class IntegrityError(SimplatError):
    """An internal cross-check failed; this signals a bug, not bad input."""


def is_int(value: object) -> bool:
    """Whether value is a true int (bool excluded)."""
    return isinstance(value, int) and not isinstance(value, bool)


def shown(value) -> str:
    """repr(value), or the digit count of an int past sys.get_int_max_str_digits."""
    try:
        return repr(value)
    except ValueError:
        if not isinstance(value, int):
            return f"a {type(value).__name__} holding an integer too long to print"
        from decimal import Decimal  # converts an int of any length
        sign = "a negative" if value < 0 else "an"
        return f"{sign} integer of {Decimal(value).adjusted() + 1} digits"


def check_int(value, name: str, least: int | None = None) -> int:
    """Return value if it is a true int (bool excluded) and, when least is
    given, at least least; otherwise raise InputError naming the argument:
    "{name} must be an integer[ >= {least}], got {shown(value)}"."""
    if not is_int(value) or least is not None and value < least:
        bound = "" if least is None else f" >= {least}"
        raise InputError(f"{name} must be an integer{bound}, got {shown(value)}")
    return value
