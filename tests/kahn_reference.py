"""The one stream oracle of the tests: Kahn's semantics over one unbounded
FIFO per application edge, with none of the engine's rings, batches,
capacities or passivization.

kahn_streams builds the library's own actors and sweeps them in name
order, firing each one while its current rates are covered and ready()
allows, with one invoke(inputs) per firing, until a sweep fires nothing.
Its sink streams are complete, so every engine run of the same graph and
data must deliver a prefix of each of them.

kahn_verdicts judges engine runs against it: each form of a graph (say,
its direct PAFG and its passivized form) runs to quiescence, and matches
when its sink streams equal the reference bit for bit and no source still
holds data, so a form that stalls early fails even if its sinks happen to
be equal.
"""

from collections import deque

from pafg.runtime import compare_streams, instantiate

# the verdict of a form that matches the reference
COMPLETE = (None, [])


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


def kahn_verdicts(graph, forms, lib, source_data):
    """Run each coordinated PAFG in forms to quiescence on the engine and
    judge it against kahn_streams(graph, lib, source_data). One verdict per
    form: (the first StreamDivergence of compare_streams(reference, its
    sinks) or None, the sorted sources that still hold data). A short
    stream diverges at its first missing index with right None; a form
    matches when its verdict is COMPLETE."""
    reference = kahn_streams(graph, lib, source_data)
    verdicts = []
    for z in forms:
        instance = instantiate(z, lib, source_data)
        instance.run()
        left = sorted(n for n, a in instance.actors.items() if a.is_source and a.ready())
        verdicts.append((compare_streams(reference, instance.sink_streams())[1], left))
    return verdicts
