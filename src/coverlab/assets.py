"""Locating the in-repo data assets: their names, their directory, their paths.

The asset directory is the explicit argument (`--assets DIR` on the command
line) or else the packaged assets/ directory; nothing else redirects it.
Each file is read by the loader of the layer it belongs to (`load_cover`,
`load_prime_table`, `load_two_prime_data`, `load_certificates`), given the
path that `asset_path` returns.  Assets are claims, not trusted facts; the
verification commands and the acceptance suite re-check them from scratch.
"""

from __future__ import annotations

import hashlib
import os

from .covers import load_cover  # noqa: F401 -- module attribute the perfbench tracer patches

COVER_ERDOS = "cover_erdos.json"
COVER_ODD173 = "cover_odd173.json"
PRIME_TABLE = "prime_table_odd173.json"
TWO_PRIME_CLASS = "two_prime_class.json"
SAMPLE_CASE = "sample_exclusion_case.json"
PRIME_CERTIFICATES = "prime_certificates.json"

ALL_ASSETS = (COVER_ERDOS, COVER_ODD173, PRIME_TABLE, TWO_PRIME_CLASS,
              SAMPLE_CASE, PRIME_CERTIFICATES)


def asset_dir(override: str | os.PathLike | None = None) -> str:
    if override is not None:
        return os.fspath(override)
    return os.path.join(os.path.dirname(__file__), "assets")


def asset_path(name: str, override: str | os.PathLike | None = None) -> str:
    path = os.path.join(asset_dir(override), name)
    if not os.path.isfile(path):
        raise FileNotFoundError(f"asset {name} not found in {asset_dir(override)}")
    return path


def checksum(path: str | os.PathLike) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        digest.update(fh.read())
    return digest.hexdigest()
