"""A PAFG's block graph (Pafg.graph) and the edge rule of every graph.

check_edge is the one endpoint and self-loop rule: ApplicationGraph checks
each of its edges with it, and DirectedGraph each block connection. A
DirectedGraph is an immutable value over opaque string vertices and
ordered-pair edges; construction builds ins and outs, its list of in- and
out-edges per vertex that has any, and rejects a bad edge, naming the
first in sorted order.
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
            outs.setdefault(e[0], []).append(e)
            ins.setdefault(e[1], []).append(e)
        if not self.vertices >= outs.keys() | ins.keys() or any(a == b for a, b in self.edges):
            for e in sorted(self.edges):
                check_edge(self.vertices, *e)
        object.__setattr__(self, "ins", ins)
        object.__setattr__(self, "outs", outs)

    @classmethod
    def of(cls, vertices=(), edges=()):
        return cls(frozenset(vertices), frozenset(edges))

    def _lookup(self, index, v):
        if v not in self.vertices:
            raise UnknownVertexError(f"unknown vertex {v!r}")
        return index.get(v, ())

    def in_edges(self, v):
        return set(self._lookup(self.ins, v))

    def out_edges(self, v):
        return set(self._lookup(self.outs, v))

    def pred(self, v):
        return {src for src, _ in self._lookup(self.ins, v)}

    def succ(self, v):
        return {snk for _, snk in self._lookup(self.outs, v)}
