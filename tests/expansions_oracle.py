"""The defining conditions of a Margolis-Meakin graph, kept as an oracle.

An element of M(G, X) carries a finite subgraph of the Cayley graph of G
that contains the vertex 1 and is connected.  ``validate`` checks both
conditions by a search from 1; ``expansions.mm_multiply`` and
``expansions.munn_to_mm`` build their graphs without checking, so the tests
validate what they return.
"""

from __future__ import annotations

from ehresmann.expansions import CayleySubgraph, _step


def validate(graph: CayleySubgraph) -> None:
    """Raise ValueError unless the graph contains 1 and is connected."""
    one = graph.base.identity()
    if one not in graph.vertices:
        raise ValueError("subgraph must contain the identity vertex")
    adj = {v: [] for v in graph.vertices}
    for h, x in graph.edges:
        hx = _step(graph.base, h, x)
        if h not in graph.vertices or hx not in graph.vertices:
            raise ValueError("edge endpoint outside vertex set")
        adj[h].append(hx)
        adj[hx].append(h)
    seen = {one}
    stack = [one]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if seen != set(graph.vertices):
        raise ValueError("subgraph is not connected to 1")
