"""Dense N x N views of graphs and models, for tests that check against brute force."""

import numpy as np


def dense_adjacency(g):
    """The N x N 0/1 adjacency matrix of g, built from its arcs."""
    a = np.zeros((g.n_nodes, g.n_nodes))
    a[g.arcs] = 1.0
    return a


def probability_matrix(model):
    """The model's pair probabilities as a symmetric N x N matrix with a zero diagonal."""
    n = model.n_nodes
    rows, cols = np.triu_indices(n, 1)
    m = np.zeros((n, n))
    m[rows, cols] = m[cols, rows] = model.pair_probabilities()
    return m
