"""Label-chain algebra, kept as an independent Künneth oracle for the
library's integer chains.

A chain here is a dict from label simplices (tuples of vertex labels in
canonical order) to coefficients.  Orientation signs compare labels, and the
join of two chains is the Künneth embedding with shuffle-parity signs.  The
library builds basis cycles and pushes fundamental cycles on vertex ids
(``gadgets``); the tests compare those vectors with what this module builds
from labels, and feed its chains to the exact witnesses (``is_cycle``,
``cycle_is_boundary``), which take label chains.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from homology_lab.complexes import Chain, CliqueComplex, Simplex
from homology_lab.errors import DimensionError
from homology_lab.gadgets import IntegerState
from homology_lab.graph import BOWTIE_LOOPS, qubit_vertex


def sort_with_sign(vertices: Iterable[str]) -> tuple[Simplex, int]:
    """Sort into canonical (label) order; returns (tuple, permutation sign).

    Sign is 0 when a vertex repeats (the simplex collapses).
    """
    vs = list(vertices)
    sign = 1
    # insertion sort, counting swaps; simplices are tiny
    for i in range(1, len(vs)):
        j = i
        while j > 0 and vs[j] < vs[j - 1]:
            vs[j], vs[j - 1] = vs[j - 1], vs[j]
            sign = -sign
            j -= 1
    for a, b in zip(vs, vs[1:]):
        if a == b:
            return tuple(vs), 0
    return tuple(vs), sign


def kunneth_embed(psi: Chain, phi: Chain, *, into: CliqueComplex) -> Chain:
    """Bilinear embedding C^i(K) x C^j(L) -> C^{i+j+1}(K * L).

    ``psi`` and ``phi`` are chains on the two factors (simplices keyed by
    their own labels, which must be disjoint and present in the join).  The
    image of a basis pair |sigma> (x) |tau> is the merged simplex with the
    shuffle-parity sign.  The empty simplex acts as the unit.  Coefficients
    multiply as given, so integer chains give an integer chain.
    """
    out: Chain = {}
    for sigma, c in psi.items():
        if c == 0:
            continue
        for tau, d in phi.items():
            if d == 0:
                continue
            merged, sign = sort_with_sign(sigma + tau)
            if sign == 0:
                raise DimensionError(f"factors share vertices: {sigma!r} and {tau!r}")
            out[merged] = out.get(merged, 0) + sign * c * d
    for merged, at in zip(out, into.locate(list(out))):
        if at < 0:
            raise DimensionError(f"{merged!r} is not a simplex of the join")
    return {s: v for s, v in out.items() if v != 0}


def loop_chain(q: int, bit: str) -> Chain:
    """Copy q's bowtie loop for one bit, traversed in order, each edge signed
    by its direction."""
    loop = [qubit_vertex(q, v) for v in BOWTIE_LOOPS[int(bit)]]
    return dict(sort_with_sign((loop[i], loop[(i + 1) % 4])) for i in range(4))


def joined_loops(K: CliqueComplex, qubits: Sequence[int], z: str) -> Chain:
    """The join of the loops of copies ``q{qubits[i]}.`` for the bits z[i]."""
    chain: Chain = {(): 1}
    for q, bit in zip(qubits, z):
        chain = kunneth_embed(chain, loop_chain(q, bit), into=K)
    return chain


def basis_chain(K: CliqueComplex, z: str) -> Chain:
    """Canonical (2m-1)-cycle chain for |z> on copies 1..m inside K; its
    coefficients are +-1 and its squared norm is 4^m."""
    return joined_loops(K, range(1, len(z) + 1), z)


def target_chain(state: IntegerState, K: CliqueComplex) -> Chain:
    """The sum of the state's amplitudes times their basis chains."""
    out: Chain = {}
    for z, a in state.amps:
        for s, c in basis_chain(K, z).items():
            out[s] = out.get(s, 0) + a * c
    return {s: c for s, c in out.items() if c}


def push_chain(chain: Chain, relation: dict[str, str]) -> Chain:
    """Image of a chain under the vertex identification map (signed)."""
    out: Chain = {}
    for sigma, cof in chain.items():
        srt, sign = sort_with_sign(relation[v] for v in sigma)
        if sign:
            out[srt] = out.get(srt, 0) + cof * sign
    return {s: v for s, v in out.items() if v}


def chain_vector(K: CliqueComplex, k: int, chain: Chain) -> np.ndarray:
    """A chain of k-simplices of K as a dense float vector over degree k."""
    at = K.locate(list(chain))
    assert min(at.tolist(), default=0) >= 0, "not a simplex of the complex"
    v = np.zeros(K.dim_size(k))
    v[at] = [float(c) for c in chain.values()]
    return v
