"""SHA-256 helpers used by the manifest layer."""

from __future__ import annotations

import hashlib
from pathlib import Path

__all__ = ["sha256_file"]

_CHUNK = 1 << 20  # 1 MiB


def sha256_file(path: str | Path) -> str:
    """Hex digest of a file, streamed in 1 MiB chunks."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        while chunk := handle.read(_CHUNK):
            digest.update(chunk)
    return digest.hexdigest()
