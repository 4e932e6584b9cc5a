"""Network complexity measures: den, cls, hub (Table I-d).

The dataset is modelled as an epsilon-NN graph: nodes are instances, edges
connect pairs with Gower distance below a threshold (0.15, the standard
setting), and — following the construction the paper describes — edges
between instances of *different* classes are pruned after building the
graph. All three scores are complements, so higher = more complex.

The measures are computed directly on the boolean adjacency matrix (dense
similarity data creates huge cliques, which make networkx's per-node
triangle iteration quadratic in degree; ``diag(A^3)`` with BLAS is orders
of magnitude faster). :func:`build_epsilon_graph` still exposes the graph
as a :mod:`networkx` object for exploratory use.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.complexity.base import ComplexityInputs

if TYPE_CHECKING:
    import networkx as nx

#: Standard epsilon for the Gower-distance graph (Lorena et al.).
EPSILON = 0.15


def epsilon_adjacency(
    inputs: ComplexityInputs, epsilon: float = EPSILON
) -> np.ndarray:
    """Boolean adjacency of the pruned epsilon-NN graph (no self loops)."""
    adjacency = inputs.distances < epsilon
    adjacency &= inputs.labels[:, None] == inputs.labels[None, :]
    np.fill_diagonal(adjacency, False)
    return adjacency


def build_epsilon_graph(
    inputs: ComplexityInputs, epsilon: float = EPSILON
) -> nx.Graph:
    """The pruned epsilon-NN graph as a networkx object."""
    import networkx as nx  # slow to import; only this helper needs it

    adjacency = epsilon_adjacency(inputs, epsilon)
    graph = nx.from_numpy_array(adjacency.astype(np.int8))
    return graph


def den_density(
    inputs: ComplexityInputs, adjacency: np.ndarray | None = None
) -> float:
    """1 - edge density of the pruned graph."""
    if adjacency is None:
        adjacency = epsilon_adjacency(inputs)
    n = adjacency.shape[0]
    if n < 2:
        return 1.0
    return 1.0 - float(adjacency.sum()) / (n * (n - 1))


def cls_clustering_coefficient(
    inputs: ComplexityInputs, adjacency: np.ndarray | None = None
) -> float:
    """1 - average clustering coefficient of the pruned graph.

    Per node: triangles / possible wedges, with ``triangles = diag(A^3)/2``
    and ``wedges = deg (deg - 1) / 2``; isolated and degree-1 nodes
    contribute 0, matching the networkx convention.
    """
    if adjacency is None:
        adjacency = epsilon_adjacency(inputs)
    n = adjacency.shape[0]
    if n == 0:
        return 1.0
    dense = adjacency.astype(np.float32)
    degrees = dense.sum(axis=1)
    paths_of_length_two = dense @ dense  # BLAS; einsum would loop in Python C
    closed = np.multiply(paths_of_length_two, dense, out=paths_of_length_two)
    triangles = closed.sum(axis=1) / 2.0
    wedges = degrees * (degrees - 1.0) / 2.0
    coefficients = np.divide(
        triangles, wedges, out=np.zeros(n, dtype=np.float64), where=wedges > 0
    )
    return 1.0 - float(coefficients.mean())


def hub_score(
    inputs: ComplexityInputs, adjacency: np.ndarray | None = None
) -> float:
    """1 - mean hub score of the pruned graph.

    On an undirected graph the HITS hub score coincides with the principal
    eigenvector of the adjacency matrix; isolated components get score 0.
    Dense same-class hubs push the mean up, so well-clustered (simple)
    datasets score low.
    """
    if adjacency is None:
        adjacency = epsilon_adjacency(inputs)
    n = adjacency.shape[0]
    if n == 0 or not adjacency.any():
        return 1.0
    dense = adjacency.astype(np.float64)
    vector = np.ones(n) / n
    for __ in range(100):
        candidate = dense @ vector
        norm = np.linalg.norm(candidate)
        if norm == 0:
            return 1.0
        candidate /= norm
        if np.allclose(candidate, vector, atol=1e-10):
            vector = candidate
            break
        vector = candidate
    scores = np.abs(vector)
    peak = scores.max()
    if peak > 0:
        scores = scores / peak
    return 1.0 - float(scores.mean())
