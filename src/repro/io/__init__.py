"""Durable artifact I/O: atomic writes, checksums, versioned manifests.

Every artifact this repository persists (model weights, normalizer
state, cached records, training checkpoints) goes through this package
so that

* a crash mid-write never leaves a half-written file where a complete
  one used to be (*atomicity*: tmp file + fsync + rename);
* a flipped byte is detected at load time and surfaced as a typed
  :class:`repro.errors.ArtifactCorruptedError` instead of a cryptic
  ``zipfile``/``json`` traceback (*integrity*: SHA-256 checksums);
* a directory of artifacts carries a schema-versioned ``manifest.json``
  naming each file and its digest (*provenance*).
"""

from .atomic import (atomic_write_bytes, atomic_write_json,
                     atomic_write_text, atomic_savez, replace_file)
from .checksum import sha256_file
from .manifest import (MANIFEST_NAME, MANIFEST_SCHEMA_VERSION,
                       ArtifactManifest, load_checked_json,
                       load_checked_npz, verify_manifest, write_manifest)

__all__ = [
    "atomic_write_bytes", "atomic_write_text", "atomic_write_json",
    "atomic_savez", "replace_file",
    "sha256_file",
    "MANIFEST_NAME", "MANIFEST_SCHEMA_VERSION", "ArtifactManifest",
    "write_manifest", "verify_manifest",
    "load_checked_json", "load_checked_npz",
]
