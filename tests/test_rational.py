from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from homology_lab.rational import nullspace, rank_int, reduce_columns, solve

from conftest import dense_rank


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


def _rows(cols):
    rows = {}
    for j, col in enumerate(cols):
        for r, v in col.items():
            rows.setdefault(r, {})[j] = v
    return rows.values()


@settings(max_examples=200)
@given(int_matrices())
def test_rank_matches_dense_oracle(case):
    cols, _nrows, _x0 = case
    assert rank_int(_rows(cols)) == dense_rank(cols)


@settings(max_examples=200)
@given(int_matrices())
def test_nullspace_is_a_kernel_basis(case):
    cols, nrows, _x0 = case
    kernel = nullspace(cols, nrows)
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
    x = solve(cols, nrows, {r: Fraction(v, 2) for r, v in b.items()})
    assert x is not None
    assert _apply(cols, x) == {r: Fraction(v, 2) for r, v in b.items()}


@settings(max_examples=200)
@given(int_matrices())
def test_solve_rejects_a_right_hand_side_outside_the_span(case):
    cols, nrows, _x0 = case
    rank = dense_rank(cols)
    for i in range(nrows):
        x = solve(cols, nrows, {i: Fraction(1)})
        if dense_rank([*cols, {i: 1}]) > rank:
            assert x is None
        else:
            assert x is not None and _apply(cols, x) == {i: 1}


def test_reduced_columns_have_distinct_pivots():
    reduced = reduce_columns([{0: 2, 1: 4}, {0: 1, 1: 2}, {1: 3}, {0: 1}])
    assert reduced[0] == {0: 1, 1: 2}  # divided by its content
    assert reduced[1] == {}
    assert reduced[2] == {1: 1}
    assert reduced[3] == {}
