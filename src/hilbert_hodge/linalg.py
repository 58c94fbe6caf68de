"""Exact rank of integer matrices by gcd-normalised elimination.

Plain Python integers keep every value exact.  Columns are eliminated in
turn, in the orientation given; those that get a pivot, the pivot columns,
are the ones outside the span of the columns before them, whatever the row
order.  Below each pivot, a row whose entry in the pivot column is 0 is left
alone; every other row becomes ``pivot * row - factor * pivot_row``, divided
by the gcd of its entries.  Scaling a row by the non-zero pivot, adding a
multiple of another row and dividing by a non-zero integer are invertible
row operations over the rationals, so the rank never changes.  A reduced row
is proportional to the row that fraction-free elimination would hold there,
whose entries are minors of the input; being primitive, it is no larger.
"""

from __future__ import annotations

from math import gcd
from typing import Sequence


def integer_matrix_rank(rows: Sequence[Sequence[int]], pivots=None) -> int:
    """Rank of an integer matrix given as a sequence of rows (possibly
    empty), its pivot columns appended to ``pivots`` if that is a list; a
    reduced row is a new list, so the rows given never change."""
    m = list(rows)
    n_rows = len(m)
    n_cols = len(m[0]) if n_rows else 0
    rank = 0
    for col in range(n_cols):
        for i in range(rank, n_rows):
            if m[i][col]:
                break
        else:
            continue  # no pivot in this column
        m[rank], m[i] = m[i], m[rank]
        row_p = m[rank]
        pivot = row_p[col]
        rank += 1
        if pivots is not None:
            pivots.append(col)
        if rank == n_rows or col + 1 == n_cols:
            break  # no row or no column left to reduce
        for i in range(rank, n_rows):
            factor = m[i][col]
            if factor:
                row = [pivot * a - factor * b for a, b in zip(m[i], row_p)]
                g = gcd(*row)
                m[i] = [x // g for x in row] if g > 1 else row
    return rank
