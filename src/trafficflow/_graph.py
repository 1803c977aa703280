"""Strongly connected components of a dense nonnegative matrix.

The incidence digraph has an edge i -> j iff m[i, j] > 0.  Components
are returned in topological order of access: if any node of C has an
edge into D (C != D), then C appears before D.
"""

from __future__ import annotations

import numpy as np


def _neighbours(m: np.ndarray) -> list[list[int]]:
    """Ascending column indices of the positive entries of each row,
    from one scan of the whole matrix."""
    rows, cols = np.nonzero(m > 0)
    ends = np.cumsum(np.bincount(rows, minlength=m.shape[0])).tolist()
    targets = cols.tolist()
    return [targets[start:end] for start, end in zip([0] + ends, ends)]


def strongly_connected_components(adjacency: np.ndarray) -> list[frozenset[int]]:
    """Iterative Kosaraju on a boolean/nonnegative adjacency matrix."""
    m = np.asarray(adjacency)
    n = m.shape[0]
    if m.shape != (n, n):
        raise ValueError("adjacency matrix must be square")
    succ = _neighbours(m)
    pred = _neighbours(m.T)

    # First pass: record finish order on the forward graph.
    order: list[int] = []
    seen = [False] * n
    for start in range(n):
        if seen[start]:
            continue
        stack = [(start, 0)]
        seen[start] = True
        while stack:
            node, idx = stack.pop()
            children = succ[node]
            while idx < len(children) and seen[children[idx]]:
                idx += 1
            if idx < len(children):
                stack.append((node, idx + 1))
                child = children[idx]
                seen[child] = True
                stack.append((child, 0))
            else:
                order.append(node)

    # Second pass: sweep the reverse graph in reverse finish order; each
    # sweep discovers one component, and components come out in
    # topological order of the forward graph.
    component = [-1] * n
    classes: list[frozenset[int]] = []
    for start in reversed(order):
        if component[start] >= 0:
            continue
        label = len(classes)
        members = [start]
        component[start] = label
        stack = [start]
        while stack:
            node = stack.pop()
            for nxt in pred[node]:
                if component[nxt] < 0:
                    component[nxt] = label
                    members.append(nxt)
                    stack.append(nxt)
        classes.append(frozenset(members))
    return classes
