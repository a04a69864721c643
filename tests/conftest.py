import random
from functools import lru_cache
from itertools import combinations
from math import gcd

import pytest
from hypothesis import settings
from hypothesis import strategies as st

settings.register_profile("repeatable", deadline=None, derandomize=True)
settings.load_profile("repeatable")

from homology_lab.complexes import CliqueComplex
from homology_lab.graph import WeightedGraph, make_graph, unweighted
from homology_lab.homology import coboundary_pairs
from homology_lab.operators import coboundary

# -- shared complex cache ------------------------------------------------------


@lru_cache(maxsize=256)
def built(graph: WeightedGraph, max_dim: int) -> CliqueComplex:
    return CliqueComplex(graph, max_dim)


@pytest.fixture
def build():
    return built


def positions(K: CliqueComplex, simplices) -> list[int]:
    """Each label simplex's index in its degree of K, which must hold it."""
    at = K.locate(list(simplices)).tolist()
    assert min(at, default=0) >= 0, "not a simplex of the complex"
    return at


# -- independent exact rank ----------------------------------------------------


def assert_builds_only_what_it_reads(cols, built) -> None:
    """``reduce_columns``'s dicts against the plain loop on the same dict
    columns: it builds one for each column that had another added to it
    and each column so added, all columns the loop visits (not apparent:
    an earlier column holds their pivot row) or apparent ones they hit."""
    additions, seen, apparent = [], set(), set()
    want = reference_reduce(cols, additions)
    for j, col in enumerate(cols):
        rows = {r for r, v in col.items() if v}
        if rows and min(rows) not in seen:
            apparent.add(j)
        seen |= rows
    added_to, added = {j for j, _ in additions}, {i for _, i in additions}
    assert set(built) == added_to | added
    assert added_to.isdisjoint(apparent)
    assert all(built[j] == want[j] for j in built)


def dense_rank(rows) -> int:
    """Rank over Q of sparse integer rows {col: value}, by dense elimination.

    A test oracle that shares no code with homology_lab.rational: the rows are
    expanded to dense lists and eliminated column by column with integer
    two-row updates, each result divided by its content.
    """
    rows = [dict(r) for r in rows]
    cols = sorted({c for r in rows for c, v in r.items() if v})
    m = [[r.get(c, 0) for c in cols] for r in rows]
    rank = 0
    for j in range(len(cols)):
        piv = next((i for i in range(rank, len(m)) if m[i][j]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        p = m[rank]
        for i in range(rank + 1, len(m)):
            if m[i][j]:
                row = [p[j] * x - m[i][j] * y for x, y in zip(m[i], p)]
                g = gcd(*row)
                m[i] = [x // g for x in row] if g > 1 else row
        rank += 1
    return rank


# -- homology-direction reference reduction -------------------------------------


def reference_reduce(cols, additions=None) -> list[dict]:
    """Each dict column {row: value} reduced against the earlier ones, in
    order, by a plain loop with no shortcut: the reduction as it stood
    before apparent and emergent columns skipped the loop.

    A reduced column is {} or has a pivot ``min`` no earlier column has.
    When ``additions`` is a list, each (j, i) with column i's reduced form
    added to column j is appended to it.
    """
    def primitive(col):
        g = gcd(*col.values()) if col else 1
        return {r: x // g for r, x in col.items()}

    owner, out = {}, []
    for j, col in enumerate(cols):
        cur = primitive({r: v for r, v in col.items() if v})
        while cur:
            low = min(cur)
            if low not in owner:
                owner[low] = j
                break
            i = owner[low]
            if additions is not None:
                additions.append((j, i))
            other = out[i]
            g = gcd(other[low], cur[low])
            p, v = other[low] // g, cur[low] // g
            new = {r: p * x for r, x in cur.items()}
            for r, y in other.items():
                new[r] = new.get(r, 0) - v * y
            cur = primitive({r: x for r, x in new.items() if x})
        out.append(cur)
    return out


def boundary_side_rank(K, k) -> int:
    """Rank of d^k in the homology direction, uncleared: its rows reduced as
    the columns of the boundary map, last row first."""
    rows = list(coboundary(K, k).int_rows_at_one().values())
    return sum(1 for col in reference_reduce(rows[::-1]) if col)


def boundary_side_pairs(K, k) -> set[tuple[int, int]]:
    """Persistence pairs of d^k in the homology direction, uncleared: its
    rows as boundary columns in ascending (level, index), each column's
    pivot its face highest in (level, index)."""
    lo, hi = K.levels[k].tolist(), K.levels[k + 1].tolist()
    rows = coboundary(K, k).int_rows_at_one()
    face_at = sorted(range(len(lo)), key=lambda c: (lo[c], c), reverse=True)
    number = {c: i for i, c in enumerate(face_at)}
    order = sorted(rows, key=lambda r: (hi[r], r))
    reduced = reference_reduce({number[c]: v for c, v in rows[r].items()} for r in order)
    return {(face_at[min(col)], r) for r, col in zip(order, reduced) if col}


def pair_list(K, k) -> list[tuple[int, int]]:
    """d^k's persistence pairs (``coboundary_pairs``) as (k-simplex, coface)
    index tuples, in ascending (level, index) of the coface."""
    s, t = coboundary_pairs(K, k)
    return list(zip(s.tolist(), t.tolist()))


# -- random graph generation ---------------------------------------------------


def complete_graph(vertices) -> WeightedGraph:
    """The complete graph on the given labels, every exponent 0."""
    return unweighted(vertices, combinations(vertices, 2))


def random_graph(rng: random.Random, n: int, p: float = 0.5, wmax: int = 0) -> WeightedGraph:
    vs = [f"v{i}" for i in range(n)]
    edges = [(u, v) for i, u in enumerate(vs) for v in vs[i + 1 :] if rng.random() < p]
    return make_graph({v: rng.randint(0, wmax) for v in vs}, edges)


def seeded_graphs(count: int, n_max: int, p: float = 0.5, wmax: int = 0, seed: int = 1234):
    rng = random.Random(seed)
    return [random_graph(rng, rng.randint(2, n_max), p, wmax) for _ in range(count)]


@st.composite
def graphs(draw, max_vertices: int = 8, wmax: int = 0):
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    vs = [f"v{i}" for i in range(n)]
    pairs = [(u, v) for i, u in enumerate(vs) for v in vs[i + 1 :]]
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [e for e, keep in zip(pairs, mask) if keep]
    ws = draw(st.lists(st.integers(0, wmax), min_size=n, max_size=n)) if wmax else [0] * n
    return make_graph(dict(zip(vs, ws)), edges)


# -- acceptance summary reporting ----------------------------------------------

ACCEPTANCE_RESULTS: list[tuple[str, str, str]] = []


def record_acceptance(criterion: str, ok: bool, detail: str = "") -> None:
    ACCEPTANCE_RESULTS.append((criterion, "PASS" if ok else "FAIL", detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for criterion, status, detail in sorted(ACCEPTANCE_RESULTS):
        line = f"{criterion}: {status}"
        if detail:
            line += f"  ({detail})"
        terminalreporter.write_line(line)
