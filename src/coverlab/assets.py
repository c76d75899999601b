"""Locating and loading the in-repo data assets.

The asset directory is the explicit argument (`--assets DIR` on the command
line) or else the packaged assets/ directory; nothing else redirects it.
Assets are claims, not trusted facts; the verification commands and the
acceptance suite re-check them from scratch.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path

from .codec import FormatError
from .construct import TwoPrimeData, erdos_refusal, load_two_prime_data
from .covers import CoveringSystem, load_cover
from .mersenne import PrimeTable, load_prime_table

COVER_ERDOS = "cover_erdos.json"
COVER_ODD173 = "cover_odd173.json"
PRIME_TABLE = "prime_table_odd173.json"
TWO_PRIME_CLASS = "two_prime_class.json"
SAMPLE_CASE = "sample_exclusion_case.json"
PRIME_CERTIFICATES = "prime_certificates.json"

ALL_ASSETS = (COVER_ERDOS, COVER_ODD173, PRIME_TABLE, TWO_PRIME_CLASS,
              SAMPLE_CASE, PRIME_CERTIFICATES)


def asset_dir(override: str | os.PathLike | None = None) -> Path:
    if override is not None:
        return Path(override)
    return Path(__file__).parent / "assets"


def asset_path(name: str, override: str | os.PathLike | None = None) -> Path:
    path = asset_dir(override) / name
    if not path.is_file():
        raise FileNotFoundError(f"asset {name} not found in {asset_dir(override)}")
    return path


def checksum(path: str | os.PathLike) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        digest.update(fh.read())
    return digest.hexdigest()


def erdos_cover(override=None) -> CoveringSystem:
    path = asset_path(COVER_ERDOS, override)
    cover = load_cover(path)
    where, why = erdos_refusal(cover)
    if why:
        raise FormatError(f"{path}: {where}: {why}")
    return cover


def odd_cover_173(override=None) -> CoveringSystem:
    return load_cover(asset_path(COVER_ODD173, override))


def prime_table(override=None) -> PrimeTable:
    return load_prime_table(asset_path(PRIME_TABLE, override))


def two_prime_data(override=None) -> TwoPrimeData:
    return load_two_prime_data(asset_path(TWO_PRIME_CLASS, override))
