"""Clique-complex homology, weighted Laplacians, spectral sequences, and
Hamiltonian-to-graph gadget reductions at desk scale."""

from .complexes import CliqueComplex, clique_complex, factor_complexes
from .gadgets import (
    IntegerState,
    apply_f,
    basis_cycle,
    build_K,
    catalog,
    fill_cycle,
    gadget,
    glue,
)
from .graph import (
    WeightedGraph,
    bowtie,
    graph_to_json,
    join_all,
    join_factors,
    make_graph,
    octahedron,
    parse_graph,
    qubit_graph,
    thicken,
)
from .homology import (
    BettiTable,
    betti,
    betti_table,
    euler_characteristic,
    harmonic_basis,
    join_betti,
)
from .operators import MonomialMatrix, coboundary, laplacian
from .reduction import (
    Hamiltonian,
    decide,
    pad,
    parse_hamiltonian,
    reduce_hamiltonian,
    schedule,
)
from .specseq import filtration, forman_compare, page_dims, stabilized_dims
from .spectra import join_lambda_min, join_spectrum, lambda_min, spectrum, sweep

__version__ = "0.1.0"
