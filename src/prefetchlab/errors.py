"""Exception types shared across the package, and the bounds-checked read
through which the binary artifact loaders report truncation."""

import os


class ConfigError(ValueError):
    """Invalid configuration or generator parameters."""


class TraceFormatError(ValueError):
    """File does not carry the expected magic/header, or is truncated."""


class DataError(ValueError):
    """Input data violates an operation precondition (e.g. too short)."""


def read_exact(f, n: int, path) -> bytes:
    """Read exactly `n` bytes from binary file `f`.

    Raises TraceFormatError naming `path` and the byte offset when fewer
    than `n` bytes remain, before allocating anything for the read.
    """
    offset = f.tell()
    available = os.fstat(f.fileno()).st_size - offset
    if n > available:
        raise TraceFormatError(
            f"{path}: truncated at byte offset {offset + available}: "
            f"needed {n} bytes from offset {offset}"
        )
    return f.read(n)
