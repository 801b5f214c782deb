"""An engine-independent reference for the random-graph tests: Kahn's
semantics over one unbounded FIFO per application edge, with none of the
engine's rings, batches, capacities or passivization.

kahn_streams builds the library's own actors and sweeps them in name
order, firing each one while its current rates are covered and ready()
allows, with one invoke(inputs) per firing, until a sweep fires nothing.
Its sink streams are complete, so every engine run of the same graph and
data must deliver a prefix of each of them.
"""

from collections import deque


def kahn_streams(graph, lib, source_data):
    actors = {name: lib.make_active(spec) for name, spec in sorted(graph.actors.items())}
    for name, values in source_data.items():
        actors[name].bind(values)
    ins = {name: {} for name in actors}
    outs = {name: {} for name in actors}
    for e in graph.edges.values():
        ins[e.snk][e.snk_port] = outs[e.src][e.src_port] = deque()
    fired = True
    while fired:
        fired = False
        for name, actor in actors.items():
            while actor.ready():
                consume, _ = actor.rates()
                need = {port: consume.get(port, 0) for port in ins[name]}
                if any(len(ins[name][port]) < n for port, n in need.items()):
                    break
                inputs = {port: [ins[name][port].popleft() for _ in range(n)]
                          for port, n in need.items()}
                for port, values in actor.invoke(inputs).items():
                    outs[name][port].extend(values)
                fired = True
    return {name: a.collected for name, a in actors.items() if a.is_sink}
