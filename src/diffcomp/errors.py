"""Exception types shared across the package, the one size cap and the one quoting bound.

The CLI maps these onto exit codes: format/size/dimension problems exit 2,
model violations and failed recovery checks exit 3.
"""

import os
from itertools import islice
from reprlib import recursive_repr
from typing import Iterable

DEFAULT_MAX_TERMS = 100_000
BOUND = 200  # the most characters of input, or of a witness, that one message writes out


class DiffcompError(Exception):
    """Base class for all package-specific errors."""


class FormatError(DiffcompError):
    """A text file or serialized value does not match its documented format."""


class SizeCapError(DiffcompError):
    """A builder would exceed the configured term cap (DIFFCOMP_MAX_TERMS)."""


def max_terms() -> int:
    """Size cap on expanded listings and products; override with DIFFCOMP_MAX_TERMS."""
    raw = os.environ.get("DIFFCOMP_MAX_TERMS", DEFAULT_MAX_TERMS)
    try:
        value = int(raw)
    except ValueError:
        raise FormatError(f"DIFFCOMP_MAX_TERMS must be an integer, got {quoted(raw)}") from None
    if value < 1:
        raise FormatError("DIFFCOMP_MAX_TERMS must be positive")
    return value


def charge(factors: Iterable[int], what: str, unit: str = "terms", per_term: int = 1) -> int:
    """Charge prod(factors) to per_term * max_terms() and return it.  The factors are multiplied
    only until the product passes the cap; a refusal names a whole product below 2**(3 * BOUND)."""
    cap, count, factors = per_term * max_terms(), 1, iter(factors)
    for f in factors:
        if (count := count * f) > cap:
            over = f"more than {cap}"
            shown = str(count) if fits(count) and next(factors, None) is None else over
            raise SizeCapError(f"{what} needs {shown} {unit}, over the cap of {cap}")
    return count


def fits(*values: int) -> bool:
    """Whether a refusal may write these integers out: at most 3 * BOUND bits in all."""
    return sum(map(int.bit_length, values)) <= 3 * BOUND


def number(value: int) -> str:
    """An integer for a refusal: written whole up to 2^(3 * BOUND), otherwise named by its size."""
    shown = f"{'under -' if value < 0 else 'over '}2^{3 * BOUND}"
    return str(value) if fits(abs(value) - 1) else shown


@recursive_repr()  # a list or dict inside itself is written there as '...'
def quoted(value: object) -> str:
    """repr(value) for a refusal: cut to BOUND characters (a str's before repr) and then '...'.
    It formats only what it shows: an int through `number`, and a tuple, list, non-empty set or
    dict item by item to BOUND."""
    kind, ends = type(value), {tuple: "()", list: "[]", set: "{}", dict: "{}"}.get(type(value))
    if not ends or kind is set and not value:  # set() is written as repr writes it
        text = (value if isinstance(value, str) else number(value) if type(value) is int else
                repr(value))
    else:
        items = islice(value.items() if kind is dict else value, BOUND)
        text = ", ".join(": ".join(map(quoted, x)) if kind is dict else quoted(x) for x in items)
        text = f"{ends[0]}{text}{',' * (kind is tuple and len(value) == 1)}{ends[1]}"
    return (repr if isinstance(value, str) else str)(text[:BOUND]) + "..." * (len(text) > BOUND)


class InvalidRelabellingError(DiffcompError):
    """A variable relabelling is not injective or collides with kept variables."""


class ModelViolationError(DiffcompError):
    """Execution produced a scalar the model cannot interpret as a bit."""


class SingularMatrixError(DiffcompError):
    """Matrix inversion was requested for a singular matrix."""


class NotHomogeneousError(DiffcompError):
    """An operation requiring a homogeneous input received an inhomogeneous one."""


class InternalInconsistencyError(DiffcompError):
    """A certified post-condition failed; indicates a bug, not bad input."""


class NotApplicableError(DiffcompError):
    """The input is outside the domain where the operation is defined."""


class DimensionError(DiffcompError, ValueError):
    """A size, index or shape is out of range; still a ValueError for library callers."""
