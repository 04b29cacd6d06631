"""Exact bases and verification for graded local Weyl modules of the sl2
(hyper) current algebra, realized inside a divided-power polynomial algebra.

The top level re-exports only what the scripts import; everything else is
imported from its module."""

from .basis_enum import truncated_basis
from .dpalgebra import CoeffRing, RATIONALS
from .quotient_oracle import OracleSession, truncated_quotient

__version__ = "0.1.0"
