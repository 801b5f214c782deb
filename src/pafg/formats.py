"""Line-oriented text formats.

Graph files:
    actor <name> <kind> [key=value]*
    edge <src>.<port> -> <dst>.<port> capacity=<int> [type=<f64|i64>]

A PAFG file contains the application graph it is associated with plus one
line per block and per block connection:
    block <name> kind=<kind|simple> coord=<actv|pssv>
          from=<actor:<name>|edge:<src.port->dst.port>> [capacity=<int>]
    bedge <a> -> <b>
A block's name is its actor's name or its edge's signature, its kind its
actor's kind or simple. It is pssv iff it has a capacity, as a simple block
has its edge's. Every actor has a block, and the bedge lines list exactly
the connections the PAFG derives from its blocks (ir.block_edges), once.

A value is an int if int() reads it, else a float if float() does, else a
string. An edge or a block takes no key but those above. Every file is read
against a library as each line is read, so the first faulty line is the
one reported: an actor line must declare a registered kind with parameters
it accepts, an edge line join declared ports with the token type its
source's kind fixes, if any; and a PAFG's blocks meet validate_coordinated.

Blank lines and '#' comments are ignored. Sample files carry one decimal
value per line, written with %.17g so float64 values round-trip exactly.
"""

from .dataflow import AppGraphBuilder, DataflowEdge, F64, I64
from .errors import ParseError, PafgError
from .ir import ACTV, Block, PSSV, Pafg, validate_coordinated


def _parse_value(text):
    if text[:1].isalpha() and text.strip().lower() not in ("inf", "infinity", "nan"):
        return text  # the only words float() reads that start with a letter
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _format_value(value):
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse_params(tokens, lineno):
    params = {}
    for tok in tokens:
        key, sep, raw = tok.partition("=")
        if not sep or not key:
            raise ParseError(f"expected key=value, got {tok!r}", line=lineno)
        if key in params:
            raise ParseError(f"duplicate key {key!r}", line=lineno)
        params[key] = _parse_value(raw)
    return params


def _scan(text, allowed):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = (raw[:raw.index("#")] if "#" in raw else raw).split()
        if not tokens:
            continue
        directive = tokens[0]
        if directive not in allowed:
            raise ParseError(f"unknown directive {directive!r}", line=lineno)
        yield lineno, directive, tokens[1:]


def _build_app_graph(records, lib):
    """The application graph of the actor and edge records. Each actor line
    is declared, and each edge's two ports and its source's token type are
    checked against its actors' declarations, as the line is read, so a
    fault is reported at the first line that has one."""
    builder = AppGraphBuilder()
    try:
        for lineno, directive, rest in records:
            if directive == "actor":
                if len(rest) < 2:
                    raise ParseError("actor needs a name and a kind", line=lineno)
                builder.actor(rest[0], rest[1], _parse_params(rest[2:], lineno))
                lib.declare(builder.actors[rest[0]])
            elif directive == "edge":
                if len(rest) < 4 or rest[1] != "->":
                    raise ParseError(
                        "edge needs the form: edge <src>.<port> -> <dst>.<port> capacity=<int>",
                        line=lineno,
                    )
                params = _parse_params(rest[3:], lineno)
                unknown = params.keys() - {"capacity", "type"}
                if unknown:
                    raise ParseError(f"unknown edge key {min(unknown)!r}", line=lineno)
                if "capacity" not in params:
                    raise ParseError("edge needs capacity=<int>", line=lineno)
                builder.edge(rest[0], rest[2], params["capacity"], params.get("type", F64))
                lib.check_ports(next(reversed(builder.edges.values())), builder.actors)
    except ParseError:
        raise
    except PafgError as exc:  # a fault of the current line
        raise ParseError(str(exc), line=lineno) from exc
    try:
        return builder.build()
    except PafgError as exc:
        raise ParseError(str(exc)) from exc


def parse_graph(text, lib):
    return _build_app_graph(_scan(text, ("actor", "edge")), lib)


def serialize_graph(graph):
    lines = []
    for name in sorted(graph.actors):
        spec = graph.actors[name]
        parts = [f"actor {name} {spec.kind}"]
        for key in sorted(spec.params):
            parts.append(f"{key}={_format_value(spec.params[key])}")
        lines.append(" ".join(parts))
    for key in sorted(graph.edges):
        e = graph.edges[key]
        lines.append(
            f"edge {e.src}.{e.src_port} -> {e.snk}.{e.snk_port} "
            f"capacity={e.capacity} type={e.token_type}"
        )
    return "\n".join(lines) + "\n"


def parse_pafg(text, lib):
    records = list(_scan(text, ("actor", "edge", "block", "bedge")))
    app_graph = _build_app_graph(records, lib)

    origins = {}  # from= value -> (its record, the kind= word of its block line)
    for record in (*app_graph.actors.values(), *app_graph.edges.values()):
        kind, origin = _block_words(record)
        origins[origin] = record, kind
    blocks = {}
    bedges = {}  # (a, b) -> line
    for lineno, directive, rest in records:
        if directive == "block":
            _parse_block(rest, lineno, origins, blocks)
        elif directive == "bedge":
            if len(rest) != 3 or rest[1] != "->":
                raise ParseError("bedge needs the form: bedge <a> -> <b>", line=lineno)
            a, b = rest[0], rest[2]
            if (a, b) in bedges:
                raise ParseError(f"duplicate bedge {a} -> {b}", line=lineno)
            bedges[a, b] = lineno
    try:
        z = Pafg(blocks, app_graph)
        validate_coordinated(z, lib)
    except PafgError as exc:  # about a block or an actor, not a line
        raise ParseError(str(exc)) from exc
    implied = z.edges  # derived from the blocks
    if bedges.keys() == implied:
        return z  # every bedge line checked at once; the scan below names a fault
    for (a, b), lineno in bedges.items():
        if (a, b) not in implied:
            raise ParseError(f"bedge {a} -> {b} is not a connection the blocks imply", line=lineno)
    a, b = min(implied - bedges.keys())
    raise ParseError(f"missing bedge {a} -> {b}")


def _block_words(record):
    """The kind= and from= words of the block line for an actor or edge."""
    if isinstance(record, DataflowEdge):
        return "simple", f"edge:{record.signature}"
    return record.kind, f"actor:{record.name}"


def _parse_block(rest, lineno, origins, blocks):
    """One block line, read by the rule serialize_pafg writes it with
    (_block_words); the block's name must be its record's name, and it is
    pssv iff it has a capacity."""
    if not rest:
        raise ParseError("block needs a name", line=lineno)
    name = rest[0]
    if name in blocks:
        raise ParseError(f"duplicate block {name!r}", line=lineno)
    params = _parse_params(rest[1:], lineno)
    unknown = params.keys() - {"kind", "coord", "from", "capacity"}
    if unknown:
        raise ParseError(f"unknown block key {min(unknown)!r}", line=lineno)
    for required in ("kind", "coord", "from"):
        if required not in params:
            raise ParseError(f"block needs {required}=...", line=lineno)
    coord = params["coord"]
    if coord not in (PSSV, ACTV):
        raise ParseError(f"coord={coord!r} is neither {ACTV} nor {PSSV}", line=lineno)
    origin = params["from"]
    if origin not in origins:
        raise ParseError(f"from={origin!r} names no actor or edge of the graph", line=lineno)
    provenance, kind = origins[origin]
    if params["kind"] != kind:
        raise ParseError(
            f"kind={params['kind']!r} disagrees with {origin}, whose kind is {kind!r}", line=lineno
        )
    if kind == "simple":
        if coord == ACTV:
            raise ParseError(f"simple block {name!r} must be coordinated {PSSV}", line=lineno)
    elif coord == PSSV and "capacity" not in params:
        raise ParseError("passive block needs capacity=<int>", line=lineno)
    elif coord == ACTV and "capacity" in params:
        raise ParseError("active block takes no capacity=<int>", line=lineno)
    try:
        block = Block(provenance, params.get("capacity"))
    except PafgError as exc:  # a capacity the block rejects
        raise ParseError(str(exc), line=lineno) from exc
    if block.name != name:
        raise ParseError(
            f"block {name!r} must be named {block.name!r}, the name of its provenance",
            line=lineno,
        )
    blocks[name] = block


def serialize_pafg(z):
    lines = [serialize_graph(z.source).rstrip("\n")]
    for name in sorted(z.blocks):
        b = z.blocks[name]
        kind, origin = _block_words(b.provenance)
        parts = [f"block {name} kind={kind} coord={z.coordination[name]} from={origin}"]
        if b.capacity is not None:
            parts.append(f"capacity={b.capacity}")
        lines.append(" ".join(parts))
    for src, snk in sorted(z.edges):
        lines.append(f"bedge {src} -> {snk}")
    return "\n".join(lines) + "\n"


def format_sample(value):
    if isinstance(value, int):
        return str(value)
    return f"{value:.17g}"


def write_samples(path, values):
    with open(path, "w", encoding="utf-8") as fh:
        for v in values:
            fh.write(format_sample(v) + "\n")


def read_samples(path, token_type=F64):
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                values.append(int(line) if token_type == I64 else float(line))
            except ValueError:
                raise ParseError(f"bad sample {line!r}", line=lineno) from None
    return values
