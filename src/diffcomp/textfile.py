"""The line framing shared by every diffcomp text file.

Blank lines and `#` lines are dropped; the stripped lines left are the
file's records.  Files diffcomp writes open with the header
`# diffcomp-<kind> 1`.  It is optional on input, but a reader of one kind
rejects a header for another kind or version.
"""

from __future__ import annotations

from typing import Iterable

from .errors import FormatError, quoted

_HEADER = "# diffcomp-"


def write(kind: str, records: Iterable[str]) -> str:
    """The header for `kind`, then one record per line."""
    return "\n".join([f"{_HEADER}{kind} 1", *records]) + "\n"


def records(text: str, kind: str | None = None) -> list[str]:
    """The records of `text`; a file of a `kind` has some, and no other kind's header."""
    lines = [ln for ln in map(str.strip, text.splitlines()) if ln]
    if kind is not None and lines and lines[0].startswith(_HEADER):
        if lines[0] != f"{_HEADER}{kind} 1":
            raise FormatError(f"header {quoted(lines[0])} found where '{_HEADER}{kind} 1' belongs")
    out = [ln for ln in lines if not ln.startswith("#")]
    if kind is not None and not out:
        raise FormatError(f"empty {kind} file")
    return out


def ints(record: str, what: str, *minima: int) -> tuple[int, ...]:
    """A record of len(minima) integers, each at least its minimum."""
    try:
        values = tuple(map(int, record.split()))
    except ValueError:
        values = ()
    if len(values) != len(minima) or any(v < lo for v, lo in zip(values, minima)):
        raise FormatError(f"bad {what} {quoted(record)}")
    return values


def read(text: str, kind: str, *minima: int) -> tuple[tuple[int, ...], list[str]]:
    """The integers of a `kind` file's first record, and the records after it."""
    lines = records(text, kind)
    return ints(lines[0], f"{kind} header", *minima), lines[1:]
