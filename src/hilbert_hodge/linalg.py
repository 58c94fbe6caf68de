"""Exact rank of integer matrices by fraction-free elimination.

Plain Python integers keep every intermediate value exact, so the rank is
the true rank over the rationals.  The two-step update divides by the
previous pivot, which is an exact division by the Sylvester determinant
identity, so entries stay at determinant size instead of exploding
exponentially.
"""

from __future__ import annotations

from typing import Sequence


def integer_matrix_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix given as a list of rows (possibly empty)."""
    m = [list(row) for row in rows]
    n_rows = len(m)
    n_cols = len(m[0]) if n_rows else 0
    rank = 0
    prev_pivot = 1
    for col in range(n_cols):
        pivot_row = None
        for i in range(rank, n_rows):
            if m[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        pivot = m[rank][col]
        row_p = m[rank]
        for i in range(rank + 1, n_rows):
            factor = m[i][col]
            row_i = m[i]
            # every row below is rescaled, zero factor or not; the later
            # exact divisions rely on it
            for j in range(col + 1, n_cols):
                row_i[j] = (pivot * row_i[j] - factor * row_p[j]) // prev_pivot
            row_i[col] = 0
        prev_pivot = pivot
        rank += 1
        if rank == n_rows:
            break
    return rank

