import random
from functools import lru_cache
from math import gcd

import pytest
from hypothesis import settings
from hypothesis import strategies as st

settings.register_profile("repeatable", deadline=None, derandomize=True)
settings.load_profile("repeatable")

from homology_lab.complexes import CliqueComplex
from homology_lab.graph import WeightedGraph, make_graph

# -- shared complex cache ------------------------------------------------------


@lru_cache(maxsize=256)
def built(graph: WeightedGraph, max_dim: int) -> CliqueComplex:
    return CliqueComplex(graph, max_dim)


@pytest.fixture
def build():
    return built


# -- independent exact rank ----------------------------------------------------


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


# -- random graph generation ---------------------------------------------------


def random_graph(rng: random.Random, n: int, p: float = 0.5, wmax: int = 0) -> WeightedGraph:
    vs = [f"v{i}" for i in range(n)]
    edges = [(u, v) for i, u in enumerate(vs) for v in vs[i + 1 :] if rng.random() < p]
    return make_graph({v: rng.randint(0, wmax) for v in vs}, edges)


def seeded_graphs(count: int, n_max: int, p: float = 0.5, wmax: int = 0, seed: int = 1234):
    rng = random.Random(seed)
    return [random_graph(rng, rng.randint(2, n_max), p, wmax) for _ in range(count)]


@st.composite
def graphs(draw, max_vertices: int = 8, weighted: bool = False):
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    vs = [f"v{i}" for i in range(n)]
    pairs = [(u, v) for i, u in enumerate(vs) for v in vs[i + 1 :]]
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [e for e, keep in zip(pairs, mask) if keep]
    if weighted:
        ws = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    else:
        ws = [0] * n
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
