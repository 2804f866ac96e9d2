"""Exception types shared across the package, and the bounds-checked reads
through which the binary artifact loaders report truncation and trailing bytes."""

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


def check_end(f, path) -> None:
    """Raise TraceFormatError naming `path`, the offset where the payload
    ends and the count of bytes after it, unless binary file `f` ends there."""
    offset = f.tell()
    extra = os.fstat(f.fileno()).st_size - offset
    if extra:
        raise TraceFormatError(f"{path}: {extra} bytes after the payload, which ends at "
                               f"byte offset {offset}")
