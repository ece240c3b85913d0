"""Desk-scale experiments with isometric group actions on hyperbolic spaces.

Exact word and matrix arithmetic, word metrics on finite Cayley balls,
four-point hyperbolicity estimates, translation lengths, generating-set
compression, quasi-morphism certificates, and injective hulls of finite
metric spaces -- every numerical claim backed by a brute-force oracle or an
exact re-checkable witness.
"""

__version__ = "0.7.0"
