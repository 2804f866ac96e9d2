"""Exception types shared across the package, and the bounds-checked read
through which the binary artifact loaders report truncation."""

import os


class PrefetchlabError(ValueError):
    """A bad config or artifact: the CLI reports it as one `error:` line."""


class ConfigError(PrefetchlabError):
    """Invalid configuration or generator parameters."""


class TraceFormatError(PrefetchlabError):
    """File does not carry the expected magic/header, or is truncated."""


class DataError(PrefetchlabError):
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
