from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from homology_lab.rational import Columns, nullspace, rank_int, reduce_columns, solve

from conftest import assert_builds_only_what_it_reads, dense_rank, reference_reduce


@st.composite
def int_matrices(draw, max_rows: int = 6, max_cols: int = 6):
    """(columns as sparse dicts, row count, a dense integer vector x0)."""
    nrows = draw(st.integers(1, max_rows))
    ncols = draw(st.integers(1, max_cols))
    entries = st.lists(st.integers(-3, 3), min_size=nrows, max_size=nrows)
    dense = draw(st.lists(entries, min_size=ncols, max_size=ncols))
    cols = [{r: v for r, v in enumerate(col) if v} for col in dense]
    x0 = draw(st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols))
    return cols, nrows, x0


def _apply(cols, x):
    out = {}
    for j, xj in x.items():
        for r, v in cols[j].items():
            out[r] = out.get(r, 0) + v * xj
    return {r: v for r, v in out.items() if v}


@settings(max_examples=200)
@given(int_matrices())
def test_rank_matches_dense_oracle(case):
    cols, nrows, _x0 = case
    rank, pivot = rank_int(Columns.from_dicts(cols))
    pivots = pivot[pivot >= 0].tolist()
    assert len(pivot) == len(cols)
    assert rank == len(set(pivots)) == len(pivots) == dense_rank(cols)
    assert set(pivots) <= set(range(nrows))


@settings(max_examples=200)
@given(int_matrices())
def test_nullspace_is_a_kernel_basis(case):
    cols, nrows, _x0 = case
    kernel = nullspace(Columns.from_dicts(cols), nrows)
    assert len(kernel) == len(cols) - dense_rank(cols)
    for v in kernel:
        assert v and _apply(cols, v) == {}
    # a basis: independent vectors
    assert dense_rank(kernel) == len(kernel)


@settings(max_examples=200)
@given(int_matrices())
def test_solve_reproduces_a_right_hand_side_in_the_span(case):
    cols, nrows, x0 = case
    b = _apply(cols, dict(enumerate(x0)))
    x = solve(Columns.from_dicts(cols), nrows, {r: Fraction(v, 2) for r, v in b.items()})
    assert x is not None
    assert _apply(cols, x) == {r: Fraction(v, 2) for r, v in b.items()}


@settings(max_examples=200)
@given(int_matrices())
def test_solve_rejects_a_right_hand_side_outside_the_span(case):
    cols, nrows, _x0 = case
    rank = dense_rank(cols)
    for i in range(nrows):
        x = solve(Columns.from_dicts(cols), nrows, {i: Fraction(1)})
        if dense_rank([*cols, {i: 1}]) > rank:
            assert x is None
        else:
            assert x is not None and _apply(cols, x) == {i: 1}


def test_reduced_columns_have_distinct_pivots():
    pivot, built = reduce_columns(Columns.from_dicts([{0: 2, 1: 4}, {0: 1, 1: 2}, {1: 3}, {0: 1}]))
    assert pivot.tolist() == [0, -1, 1, -1]
    # column 0 is apparent (the first to hold row 0); column 1 reads it
    assert built == {0: {0: 1, 1: 2}, 1: {}, 2: {1: 1}, 3: {}}  # divided by content


def test_an_apparent_column_no_other_column_reads_is_not_built():
    pivot, built = reduce_columns(Columns.from_dicts([{2: 1, 3: 1}, {0: 5}, {2: 1}, {}]))
    assert pivot.tolist() == [2, 0, 3, -1]
    assert built == {0: {2: 1, 3: 1}, 2: {3: -1}}  # column 1 is apparent and unread


@settings(max_examples=200)
@given(int_matrices())
def test_reduction_equals_the_plain_loop_and_builds_only_what_it_reads(case):
    """The pivots are the plain loop's; dicts are built only for columns
    that take part in an addition."""
    cols, _nrows, _x0 = case
    pivot, built = reduce_columns(Columns.from_dicts(cols))
    assert pivot.tolist() == [min(col) if col else -1 for col in reference_reduce(cols)]
    assert_builds_only_what_it_reads(cols, built)


def test_solve_takes_a_right_hand_side_wider_than_int64():
    big = 3 * 10**30
    cols = Columns.from_dicts([{0: 2, 1: 1}, {1: 1}])
    assert solve(cols, 2, {0: Fraction(big), 1: Fraction(big)}) == {
        0: Fraction(big, 2),
        1: Fraction(big, 2),
    }
