"""The defining conditions of a Margolis-Meakin graph, kept as an oracle.

An element of M(F, X) carries a finite subgraph of the Cayley graph of the
free group F that contains the vertex 1 and is connected.  ``validate``
checks both conditions by a search from 1; ``expansions.mm_multiply`` and
``expansions.munn_to_mm`` build their graphs without checking, so the tests
validate what they return.

``munn_to_mm`` rebuilds the graph on a prefix-closed set by testing, for
every word h of the set and every letter x that occurs in the set, whether
h x is in the set (an edge on any other letter has an end outside the set).  ``expansions.munn_to_mm`` reads one
edge off the last letter of each word and must agree with it.

``mm_from_word`` is the element of M(F, X) that a group word spells,
multiplied out one generator or inverse generator at a time.
"""

from __future__ import annotations

from ehresmann import words
from ehresmann.expansions import (
    CayleySubgraph,
    MMElement,
    mm_generator,
    mm_identity,
    mm_inverse,
    mm_multiply,
)
from ehresmann.scheiblich import MunnElement


def validate(graph: CayleySubgraph) -> None:
    """Raise ValueError unless the graph contains 1 and is connected."""
    one = words.GEMPTY
    if one not in graph.vertices:
        raise ValueError("subgraph must contain the identity vertex")
    adj = {v: [] for v in graph.vertices}
    for h, x in graph.edges:
        hx = words.gmul(h, ((x, 1),))
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


def munn_to_mm(p: MunnElement) -> MMElement:
    names = {n for g in p.elems for n, _ in g}
    edges = frozenset(
        (h, name) for h in p.elems for name in names if words.gmul(h, ((name, 1),)) in p.elems
    )
    return MMElement(CayleySubgraph(p.elems, edges), p.point)


def mm_from_word(g) -> MMElement:
    acc = mm_identity()
    for name, sign in g:
        gen = mm_generator(name)
        acc = mm_multiply(acc, gen if sign == 1 else mm_inverse(gen))
    return acc
