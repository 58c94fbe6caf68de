"""The gcd-normalised integer rank and its pivot columns are checked against
plain rational elimination over ``Fraction``, on hand cases, on random
matrices up to the size of the largest oracle block, and on inputs it must
leave unchanged."""

import random
from fractions import Fraction

from hilbert_hodge.linalg import integer_matrix_rank


def pivots_by_fractions(rows):
    """Independent oracle: textbook Gaussian elimination over Fraction; the
    pivot columns, as many as the rank."""
    m = [[Fraction(x) for x in row] for row in rows]
    n_rows = len(m)
    n_cols = len(m[0]) if n_rows else 0
    rank, pivots = 0, []
    for col in range(n_cols):
        pivot = next((i for i in range(rank, n_rows) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(rank + 1, n_rows):
            f = m[i][col] / m[rank][col]
            for j in range(col, n_cols):
                m[i][j] -= f * m[rank][j]
        rank += 1
        pivots.append(col)
        if rank == n_rows:
            break
    return pivots


def rank_by_fractions(rows):
    return len(pivots_by_fractions(rows))


def integer_pivots(rows):
    pivots = []
    rank = integer_matrix_rank(rows, pivots)
    assert rank == len(pivots)
    return pivots


def test_hand_examples():
    assert integer_matrix_rank([]) == 0
    assert integer_matrix_rank([[0, 0], [0, 0]]) == 0
    assert integer_matrix_rank([[1]]) == 1
    assert integer_matrix_rank([[0, 1]]) == 1
    assert integer_matrix_rank([[1, 2], [2, 4]]) == 1
    assert integer_matrix_rank([[1, 2], [3, 4]]) == 2
    assert integer_matrix_rank([[2, 0, 0], [0, 0, 3]]) == 2
    # rank drop only visible after elimination
    assert integer_matrix_rank([[1, 1, 0], [1, 0, 1], [0, 1, -1]]) == 2


def test_random_matrices_match_rational_elimination():
    rng = random.Random(20240817)
    for _ in range(300):
        n_rows = rng.randint(1, 7)
        n_cols = rng.randint(1, 7)
        density = rng.choice([0.3, 0.6, 1.0])
        m = [
            [
                rng.randint(-9, 9) if rng.random() < density else 0
                for _ in range(n_cols)
            ]
            for _ in range(n_rows)
        ]
        assert integer_matrix_rank(m) == rank_by_fractions(m)


def test_low_rank_products():
    rng = random.Random(7)
    for _ in range(50):
        n, k, p = rng.randint(2, 6), rng.randint(1, 3), rng.randint(2, 6)
        a = [[rng.randint(-5, 5) for _ in range(k)] for _ in range(n)]
        b = [[rng.randint(-5, 5) for _ in range(p)] for _ in range(k)]
        prod = [
            [sum(a[i][t] * b[t][j] for t in range(k)) for j in range(p)]
            for i in range(n)
        ]
        assert integer_matrix_rank(prod) <= k
        assert integer_matrix_rank(prod) == rank_by_fractions(prod)


def sparse_matrix(rng, n_rows, n_cols, density, bound):
    return [
        [rng.randint(-bound, bound) if rng.random() < density else 0
         for _ in range(n_cols)]
        for _ in range(n_rows)
    ]


def test_sparse_matrices_up_to_the_largest_oracle_block():
    # the (1,)*7 free block's middle differential is 35 x 35 with four
    # entries per row; elimination fills such rows in as it goes
    rng = random.Random(35)
    for _ in range(40):
        n_rows, n_cols = rng.randint(1, 35), rng.randint(1, 35)
        m = sparse_matrix(rng, n_rows, n_cols, rng.choice([0.05, 0.12, 0.3]), 4)
        assert integer_matrix_rank(m) == rank_by_fractions(m), m


def test_large_entries():
    rng = random.Random(10**6)
    for _ in range(30):
        n_rows, n_cols = rng.randint(1, 12), rng.randint(1, 12)
        m = sparse_matrix(rng, n_rows, n_cols, rng.choice([0.3, 1.0]), 10**6)
        assert integer_matrix_rank(m) == rank_by_fractions(m), m


def test_rows_that_combine_other_rows():
    rng = random.Random(3)
    for _ in range(60):
        n_cols, k = rng.randint(2, 20), rng.randint(1, 6)
        base = sparse_matrix(rng, k, n_cols, 0.4, 9)
        combos = [
            [sum(c * row[j] for c, row in zip(coeffs, base)) for j in range(n_cols)]
            for coeffs in (
                [rng.randint(-3, 3) for _ in base] for _ in range(rng.randint(1, 8))
            )
        ]
        m = base + combos
        rng.shuffle(m)
        rank = integer_matrix_rank(m)
        assert rank == rank_by_fractions(m) == rank_by_fractions(base) <= k


def test_pivots_match_rational_elimination():
    # tall, wide and square, sparse or dense, and rank-deficient products
    rng = random.Random(1729)
    for _ in range(300):
        n_rows, n_cols = rng.randint(1, 9), rng.randint(1, 9)
        m = sparse_matrix(rng, n_rows, n_cols, rng.choice([0.2, 0.5, 1.0]), 5)
        assert integer_pivots(m) == pivots_by_fractions(m), m
    for _ in range(100):
        n, k, p = rng.randint(2, 9), rng.randint(1, 3), rng.randint(2, 9)
        a = sparse_matrix(rng, n, k, 0.7, 4)
        b = sparse_matrix(rng, k, p, 0.7, 4)
        prod = [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]
        pivots = integer_pivots(prod)
        assert pivots == pivots_by_fractions(prod) and len(pivots) <= k, prod


def test_a_pivot_column_is_independent_of_the_columns_before_it():
    # the definition, which no elimination order changes: column j is a
    # pivot column iff it raises the rank of the columns before it
    rng = random.Random(11)
    for _ in range(60):
        n_rows, n_cols = rng.randint(1, 8), rng.randint(1, 8)
        m = sparse_matrix(rng, n_rows, n_cols, rng.choice([0.3, 0.7]), 3)
        prefix = [rank_by_fractions([row[:j] for row in m]) for j in range(n_cols + 1)]
        want = [j for j in range(n_cols) if prefix[j + 1] > prefix[j]]
        shuffled = m[:]
        rng.shuffle(shuffled)
        assert integer_pivots(m) == integer_pivots(shuffled) == want, m


def test_inputs_come_back_unchanged():
    # a tall and a wide matrix, both eliminated as given; each has rows
    # below a pivot that elimination replaces
    tall = [[0, 2, 4], [1, 1, 1], [3, 5, 7], [0, 0, 6]]
    wide = [list(col) for col in zip(*tall)]  # its column 2 is 1 * col 0 + 3 * col 1
    for rows, want in ((tall, [0, 1, 2]), (wide, [0, 1, 3])):
        as_lists = [list(row) for row in rows]
        as_tuples = tuple(map(tuple, rows))
        assert integer_matrix_rank(as_lists) == integer_matrix_rank(as_tuples) == 3
        assert integer_pivots(as_lists) == integer_pivots(as_tuples) == want
        assert as_lists == rows
        assert as_tuples == tuple(map(tuple, rows))
