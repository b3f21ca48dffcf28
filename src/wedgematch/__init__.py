"""Wedge-confined lattice paths, perfect matchings, and the bijection
between them that sends north steps to nestings."""

from .bijections import (
    InsertionCode,
    big_phi,
    big_phi_inv,
    insertion_code,
    path_from_code,
    phi,
    phi_inv,
    psi,
    psi_inv,
)
from .enumeration import (
    CLAIMS,
    DistributionTable,
    VerificationReport,
    all_matchings,
    all_paths,
    distribution,
    double_factorial,
    verify_all,
)
from .errors import InvalidMatchingError, InvalidPathError, OverCapError, ParseError
from .matching import Edge, Matching, PairRelation, classify_pair, concatenate
from .paths import WedgePath, concatenate_paths

__version__ = "0.1.0"

__all__ = [
    "CLAIMS",
    "DistributionTable",
    "Edge",
    "InsertionCode",
    "InvalidMatchingError",
    "InvalidPathError",
    "Matching",
    "OverCapError",
    "PairRelation",
    "ParseError",
    "VerificationReport",
    "WedgePath",
    "all_matchings",
    "all_paths",
    "big_phi",
    "big_phi_inv",
    "classify_pair",
    "concatenate",
    "concatenate_paths",
    "distribution",
    "double_factorial",
    "insertion_code",
    "path_from_code",
    "phi",
    "phi_inv",
    "psi",
    "psi_inv",
    "verify_all",
]
