"""Minimal directed-graph substrate shared by application graphs and PAFGs.

A graph is an immutable value over opaque string vertices and ordered-pair
edges. Self-loops and edges with an endpoint outside the vertex set are
rejected at construction, which also builds the pred/succ index once: a
list of in-edges and of out-edges per vertex, kept only for vertices that
have edges, so neighbourhood queries look a vertex up instead of scanning
every edge.
"""

from dataclasses import dataclass

from .errors import SelfLoopError, UnknownVertexError


def check_edge(vertices, src, snk):
    """Raise unless (src, snk) joins two distinct vertices of the set."""
    for v in (src, snk):
        if v not in vertices:
            raise UnknownVertexError(f"unknown vertex {v!r} in edge ({src!r}, {snk!r})")
    if src == snk:
        raise SelfLoopError(f"self-loop on {src!r}")


@dataclass(frozen=True)
class DirectedGraph:
    vertices: frozenset
    edges: frozenset

    def __post_init__(self):
        ins, outs = {}, {}
        for e in self.edges:
            check_edge(self.vertices, *e)
            outs.setdefault(e[0], []).append(e)
            ins.setdefault(e[1], []).append(e)
        object.__setattr__(self, "_ins", ins)
        object.__setattr__(self, "_outs", outs)

    @classmethod
    def of(cls, vertices=(), edges=()):
        return cls(frozenset(vertices), frozenset(edges))

    def _lookup(self, index, v):
        if v not in self.vertices:
            raise UnknownVertexError(f"unknown vertex {v!r}")
        return index.get(v, ())

    def in_edges(self, v):
        return set(self._lookup(self._ins, v))

    def out_edges(self, v):
        return set(self._lookup(self._outs, v))

    def pred(self, v):
        return {src for src, _ in self._lookup(self._ins, v)}

    def succ(self, v):
        return {snk for _, snk in self._lookup(self._outs, v)}
