"""Domain types for Hilbert modular cohomology tables.

Everything downstream is driven by three small immutable values and one
container built from them:

* :class:`LocalSystemSpec` -- the multi-weight ``m = (m_1, ..., m_n)`` of an
  irreducible local system, one symmetric-power weight per upper-half-plane
  factor.
* :class:`VarietyInvariants` -- the numerical invariants ``(n, h, g)`` of the
  variety: dimension, number of cusps and geometric genus of a smooth
  compactification.  All geometry enters the dimension formulas through these
  three integers.
* :class:`LineBundleMonomial` -- a formal product ``L_1^{s_1} ... L_n^{s_n}``
  of the basic line bundles on the compactification.  It is a one-field
  named tuple ``(exponents,)`` and equals the plain tuple of its field.
* :class:`SheafMatrix` -- multisets of monomials indexed by cells
  ``(P, l)``, and nothing else: the shape of both the closed-form answer and
  the oracle's homology, so the two are compared as equal values of one type.

The three values are frozen and hashable; a sheaf matrix is treated as
immutable once built.  A sheaf cohomology group ``H^j(Xbar, C)`` is the
plain pair ``(j, C)``, spelled by :func:`label_text`.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .errors import (
    BadDegree,
    InconsistentInvariants,
    IncompatibleRank,
    TrivialSystem,
)


class LineBundleMonomial(NamedTuple):
    """Formal monomial ``prod_i L_i^{s_i}``: a plain tuple ``(exponents,)``
    that equals, hashes and sorts like that tuple, by its exponents."""

    exponents: tuple[int, ...]

    def __str__(self) -> str:
        parts = [f"L{i + 1}^{s}" for i, s in enumerate(self.exponents) if s != 0]
        return " ".join(parts) if parts else "1"

    def latex(self) -> str:
        parts = [
            f"\\mathcal{{L}}_{{{i + 1}}}^{{{s}}}"
            for i, s in enumerate(self.exponents)
            if s != 0
        ]
        return "".join(parts) if parts else "\\mathcal{O}"


def label_text(degree: int, monomial: LineBundleMonomial) -> str:
    """The symbol ``H^degree(Xbar, monomial)`` of the label ``(degree, monomial)``."""
    return f"H^{degree}(Xbar, {monomial})"


@dataclass
class SheafMatrix:
    """Multisets of line-bundle monomials indexed by cells ``(P, l)``.

    ``cells[(P, l)]`` is a Counter of monomials; producers pass only
    non-empty cells with positive counts.  The system they belong to is the
    caller's to know.  Treat instances as immutable once built.
    """

    cells: dict[tuple[int, int], Counter]

    def sorted_cells(self) -> list[tuple[tuple[int, int], list[LineBundleMonomial]]]:
        return [
            (key, sorted(self.cells[key].elements())) for key in sorted(self.cells)
        ]


@dataclass(frozen=True)
class LocalSystemSpec:
    """Multi-weight ``m`` of an irreducible local system on a product of
    ``n`` upper half planes.

    ``n = 1`` is legal for the chain-complex engine (so the oracle can be
    unit-tested against hand computations) but rejected by table assembly,
    which needs an honest Hilbert modular variety with ``n >= 2``.
    """

    n: int
    m: tuple[int, ...]

    def __post_init__(self) -> None:
        if {type(x) for x in (self.n, *self.m)} != {int}:
            raise BadDegree(f"n and m must be ints, got n = {self.n!r}, m = {self.m!r}")
        if self.n < 1:
            raise BadDegree(f"need n >= 1 upper-half-plane factors, got {self.n}")
        if len(self.m) != self.n:
            raise BadDegree(f"m has length {len(self.m)}, expected n = {self.n}")
        if any(mi < 0 for mi in self.m):
            raise BadDegree(f"all weights must be >= 0, got m = {self.m}")

    # rank, is_parallel and top_exponents are read for every label the tables
    # resolve: cached per spec in the instance __dict__, which equality, hash
    # and repr never look at
    @cached_property
    def rank(self) -> int:
        """Rank of the local system, prod (m_i + 1)."""
        return math.prod(mi + 1 for mi in self.m)

    @property
    def weight(self) -> int:
        """Total weight |m| = sum m_i of the variation of Hodge structure."""
        return sum(self.m)

    @cached_property
    def is_parallel(self) -> bool:
        """True when m_1 = ... = m_n (the case with boundary cohomology)."""
        return all(mi == self.m[0] for mi in self.m)

    @cached_property
    def top_exponents(self) -> tuple[int, ...]:
        """Exponents ``m_i + 2`` of ``C_I`` for ``I = {1..n}``."""
        return tuple(mi + 2 for mi in self.m)

    @property
    def is_trivial(self) -> bool:
        return all(mi == 0 for mi in self.m)

    @property
    def engine_only(self) -> bool:
        """True when the spec is usable by the oracle but not by tables."""
        return self.n < 2


def validate_spec(n: int, m, *, table: bool = False) -> LocalSystemSpec:
    """Validate ``(n, m)`` and return the spec with its derived data.

    With ``table=True`` the stricter table-assembly rules apply: ``n >= 2``
    and a non-trivial system.  Without it the engine rules apply (``n >= 1``,
    any non-negative weights), which is what the homology oracle needs.
    """
    spec = LocalSystemSpec(n, tuple(m))
    if table:
        require_table_mode(spec)
    return spec


def require_table_mode(spec: LocalSystemSpec) -> None:
    """The table-assembly rules: ``n >= 2`` and a non-trivial system."""
    if spec.engine_only:
        raise BadDegree(
            f"cohomology tables need a variety of dimension n >= 2, got n = {spec.n}"
        )
    if spec.is_trivial:
        raise TrivialSystem(
            "trivial local system: tables cover non-trivial systems only"
        )


@dataclass(frozen=True)
class VarietyInvariants:
    """Numerical invariants of the compactified variety.

    ``cusps`` counts the boundary points of the minimal compactification and
    ``genus`` is ``h^{n,0}`` of a smooth one; the intermediate Hodge numbers
    ``h^{p,0}`` vanish for ``0 < p < n``, so the arithmetic genus is
    ``chi_O = 1 + (-1)^n * genus``.

    ``genus + (-1)^n < 0`` (only possible for genus 0 in odd dimension) would
    make the universal summand dimension negative, so such inputs are
    rejected as inconsistent rather than clamped.
    """

    n: int
    cusps: int
    genus: int

    def __post_init__(self) -> None:
        if {type(self.n), type(self.cusps), type(self.genus)} != {int}:
            raise InconsistentInvariants(f"invariants must be ints, got {self!r}")
        if self.n < 2:
            raise BadDegree(f"a Hilbert modular variety has n >= 2, got {self.n}")
        if self.cusps < 1:
            raise InconsistentInvariants(
                f"the variety is non-compact, need cusps >= 1, got {self.cusps}"
            )
        if self.genus < 0:
            raise InconsistentInvariants(f"genus must be >= 0, got {self.genus}")
        if self.genus + (-1) ** self.n < 0:
            raise InconsistentInvariants(
                f"genus {self.genus} in odd dimension {self.n} gives a negative "
                "space of square-integrable sections; the invariants are "
                "inconsistent"
            )

    @property
    def chi_O(self) -> int:
        """Euler characteristic of the structure sheaf, 1 + (-1)^n * genus."""
        return 1 + (-1) ** self.n * self.genus

    def l2_dim(self, spec: LocalSystemSpec) -> int:
        """Dimension of the square-integrable sections of the top Hodge
        bundle: ``(genus + (-1)^n) * rank``.

        This single number is the universal summand dimension in the Hodge
        decomposition of the middle intersection cohomology.
        """
        if spec.n != self.n:
            raise IncompatibleRank(
                f"spec has n = {spec.n} but invariants have n = {self.n}"
            )
        return (self.genus + (-1) ** self.n) * spec.rank
