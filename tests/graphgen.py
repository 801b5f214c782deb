"""Seeded random application graphs for property tests.

Graphs are grown forward from sources by attaching consumers to open
output ports, so they are acyclic and fully bound, and every edge capacity
exceeds the largest per-firing rate. They are not all deadlock-free: an
interleave whose two inputs carry different token counts, or a fork whose
readers stop at different points, can leave a run stopped short with
tokens stranded in its buffers. An engine-independent reference run of
560 graphs (seeds 5, 202 and 11) found 39 that stop short in both forms.
All value streams are deterministic in the seed.

With modal=True a graph also holds the multi-rate and modal kinds the
benchmarks fire: a var-src whose len port feeds an avg's len port and
whose out port feeds the avg's in port through a fork (two edges between
one actor pair would need a multigraph), and ref-mag or err-mag actors on
interleave outputs. With modal=False no number is drawn for the mode, so
a seed's graphs do not depend on it.
"""

import random

from pafg.dataflow import AppGraphBuilder

# the seed sets of the Kahn prefix test: (seed, graphs, max_actors, modal)
CORPUS = ((5, 200, 16, False), (202, 60, 14, False), (11, 300, 20, False), (99, 300, 20, True))


def corpus():
    """CORPUS's 560 plain and 300 modal graphs, without their source data."""
    for seed, graphs, max_actors, modal in CORPUS:
        rng = random.Random(seed)
        for _ in range(graphs):
            yield build_random_app_graph(rng, max_actors=max_actors, modal=modal)[0]


def build_random_app_graph(rng, max_actors=20, samples_per_source=24, modal=False):
    builder = AppGraphBuilder()
    counter = {"n": 0}

    def fresh(prefix):
        counter["n"] += 1
        return f"{prefix}{counter['n']:02d}"

    def cap():
        return rng.randint(4, 64)

    def samples(n):
        return [round(rng.uniform(-1, 1), 6) for _ in range(n)]

    stubs = []  # open (actor, port) outputs
    interleaved = set()  # the stubs that are interleave outputs
    source_data = {}
    actors = 0
    for _ in range(rng.randint(1, 3)):
        name = fresh("SRC")
        builder.actor(name, "src")
        source_data[name] = samples(samples_per_source)
        stubs.append((name, "out"))
        actors += 1
    if modal:
        vs, stage, avg = fresh("VS"), fresh("F"), fresh("AVG")
        fanout = rng.randint(1, 2)
        builder.actor(vs, "var-src").actor(stage, "fork", fanout=fanout).actor(avg, "avg")
        builder.edge(f"{vs}.len", f"{avg}.len", capacity=cap(), token_type="i64")
        builder.edge(f"{vs}.out", f"{stage}.in", capacity=cap())
        builder.edge(f"{stage}.out0", f"{avg}.in", capacity=cap())
        stubs += [(avg, "out")] + [(stage, f"out{i}") for i in range(1, fanout)]
        stream = source_data[vs] = []  # flat: N1, N1 samples, N2, N2 samples, ...
        while len(stream) < samples_per_source:
            n = rng.randint(1, 6)
            stream += [n] + samples(n)
        actors += 3

    while stubs and actors < max_actors:
        idx = rng.randrange(len(stubs))
        src_actor, src_port = stubs.pop(idx)
        kinds = ["gain", "fork", "gain-fork", "interleave", "acc", "snk"]
        if (src_actor, src_port) in interleaved:
            kinds += ["ref-mag", "err-mag"] * 2  # 4 in 10 feed a magnitude actor
        kind = rng.choice(kinds)
        if kind == "err-mag":
            # the rec stream: another interleave's output
            partners = [i for i, (a, p) in enumerate(stubs)
                        if (a, p) in interleaved and a != src_actor]
            if not partners:
                kind = "ref-mag"
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
            outs = [(name, f"out{i}") for i in range(fanout)]
            stubs += outs
            if modal:
                interleaved.update(outs)
        elif kind in ("ref-mag", "err-mag"):
            name = fresh("MAG")
            builder.actor(name, kind)
            if kind == "ref-mag":
                builder.edge(f"{src_actor}.{src_port}", f"{name}.in", capacity=cap())
            else:
                other = stubs.pop(rng.choice(partners))
                builder.edge(f"{src_actor}.{src_port}", f"{name}.ref", capacity=cap())
                builder.edge(f"{other[0]}.{other[1]}", f"{name}.rec", capacity=cap())
            stubs.append((name, "out"))
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
