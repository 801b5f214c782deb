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

An actor parameter or a capacity is an int if int() reads it, else a float
if float() does, else a string; every other value (type=, kind=, coord=,
from=) is a word. An edge or a block takes no key but those above. Every
file is read in one pass, each actor and edge line checked against a
library as it is read, so the first faulty actor, edge or unknown line is
the one reported: an actor line must declare a registered kind with
parameters it accepts, an edge line join declared ports with the token type
its source's kind fixes, if any. A PAFG's block and bedge lines are read
once its graph is, and its blocks must meet validate_coordinated.

Blank lines and '#' comments are ignored. Sample files carry one decimal
value per line, written with %.17g so float64 values round-trip exactly.
"""

from .dataflow import AppGraphBuilder, ApplicationGraph, DataflowEdge, F64, I64, TOKEN_TYPES
from .errors import ModelError, ParseError, PafgError
from .ir import ACTV, Block, PSSV, Pafg, validate_coordinated


def _parse_value(text):
    if text[:1].isalpha() and text.strip().lower() not in ("inf", "infinity", "nan"):
        return text  # the only words float() reads that start with a letter
    if "." not in text and "e" not in text and "E" not in text:  # none of which int() reads
        try:
            return int(text)
        except ValueError:
            pass
    try:
        return float(text)
    except ValueError:
        return text


def _word(text, record, key, also=""):
    """text, unless a line would not split back into it: it is empty, or has
    whitespace, '#' or also, a character its place bans. The ModelError
    names the actor or edge record and the key."""
    if text.split() != [text] or "#" in text or also and also in text:
        owner = (f"edge {record.signature}" if isinstance(record, DataflowEdge)
                 else f"actor {record.name!r}")
        raise ModelError(f"{owner}: {key} {text!r} would not read back from a graph file")
    return text


def _format_value(value, spec, key):
    """value as a word that _parse_value reads back as value: no bool, and no
    string that reads as a number, inf or nan."""
    if type(value) in (int, float):
        return repr(value)
    if (back := _parse_value(text := str(value))) != value:
        raise ModelError(f"actor {spec.name!r}: {key}={value!r} would read back as {back!r}")
    return _word(text, spec, key)


_KEYS = {"edge": frozenset(("capacity", "type")),
         "block": frozenset(("kind", "coord", "from", "capacity"))}


def _parse_params(words, lineno, owner=None):
    """The key=value words of a line by key: an actor's values as
    _parse_value reads them, an edge's or a block's (owner) as words, of
    the keys the owner takes."""
    params = {}
    for word in words:
        key, sep, value = word.partition("=")
        if not sep or not key:
            raise ParseError(f"expected key=value, got {word!r}", line=lineno)
        if key in params:
            raise ParseError(f"duplicate key {key!r}", line=lineno)
        params[key] = value if owner else _parse_value(value)
    if owner and not params.keys() <= _KEYS[owner]:
        raise ParseError(f"unknown {owner} key {min(params.keys() - _KEYS[owner])!r}", line=lineno)
    return params


def _read(text, lib, later=None):
    """The application graph of text's actor and edge lines, each built and
    checked against lib as it is read (lib.declare, lib.check_ports), so the
    first faulty line is the one reported. The words of each block and bedge
    line go to later, if given, by line number; any other line is a fault."""
    builder, lineno = AppGraphBuilder(), 0
    actors, edges = builder.actors, builder.edges  # in line order
    try:
        for lineno, raw in enumerate(text.splitlines(), start=1):
            words = (raw[:raw.index("#")] if "#" in raw else raw).split()
            if not words:
                continue
            directive = words[0]
            if directive == "actor":
                if len(words) < 3:
                    raise ParseError("actor needs a name and a kind", line=lineno)
                builder.actor(words[1], words[2], _parse_params(words[3:], lineno))
                lib.declare(actors[words[1]])
            elif directive == "edge":
                if len(words) < 5 or words[2] != "->":
                    raise ParseError("edge needs the form: edge <src>.<port> -> <dst>.<port> "
                                     "capacity=<int>", line=lineno)
                params = _parse_params(words[4:], lineno, "edge")
                if "capacity" not in params:
                    raise ParseError("edge needs capacity=<int>", line=lineno)
                token_type = params.get("type", F64)
                if token_type not in TOKEN_TYPES:  # refused, with the value it reads as
                    token_type = _parse_value(token_type)
                builder.edge(words[1], words[3], _parse_value(params["capacity"]), token_type)
                lib.check_ports(next(reversed(edges.values())), actors)
            elif later is not None and directive in ("block", "bedge"):
                later[lineno] = words
            else:
                raise ParseError(f"unknown directive {directive!r}", line=lineno)
    except ParseError:
        raise
    except PafgError as exc:  # a fault of the current line
        raise ParseError(str(exc), line=lineno) from exc
    try:
        return ApplicationGraph(actors, edges)
    except PafgError as exc:
        raise ParseError(str(exc)) from exc


def parse_graph(text, lib):
    return _read(text, lib)


def serialize_graph(graph):
    lines = []
    for name in sorted(graph.actors):
        spec = graph.actors[name]
        parts = [f"actor {_word(name, spec, 'name')} {_word(spec.kind, spec, 'kind')}"]
        for key in sorted(spec.params):
            value = _format_value(spec.params[key], spec, key)
            parts.append(f"{_word(key, spec, 'key', '=')}={value}")
        lines.append(" ".join(parts))
    for key in sorted(graph.edges):
        e = graph.edges[key]
        lines.append(
            f"edge {e.src}.{_word(e.src_port, e, 'src_port', '.')} -> "
            f"{e.snk}.{_word(e.snk_port, e, 'snk_port', '.')} "
            f"capacity={e.capacity} type={e.token_type}"
        )
    return "\n".join(lines) + "\n"


def parse_pafg(text, lib):
    later = {}  # the words of each block and bedge line, by line number
    app_graph = _read(text, lib, later)
    blocks = {}
    bedges = {}  # (a, b) -> line
    by_signature = {e.signature: e for e in app_graph.edges.values()}
    for lineno, words in later.items():
        if words[0] == "block":
            _parse_block(words, lineno, app_graph.actors, by_signature, blocks)
            continue
        if len(words) != 4 or words[2] != "->":
            raise ParseError("bedge needs the form: bedge <a> -> <b>", line=lineno)
        if (words[1], words[3]) in bedges:
            raise ParseError(f"duplicate bedge {words[1]} -> {words[3]}", line=lineno)
        bedges[words[1], words[3]] = lineno
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


def _parse_block(words, lineno, actors, by_signature, blocks):
    """One block line, read by the rule serialize_pafg writes it with: from=
    is actor:<name of an actor> or edge:<signature of an edge>, kind= that
    actor's kind or simple, the block's name its record's name, and it is
    pssv iff it has a capacity."""
    if len(words) < 2:
        raise ParseError("block needs a name", line=lineno)
    name = words[1]
    if name in blocks:
        raise ParseError(f"duplicate block {name!r}", line=lineno)
    params = _parse_params(words[2:], lineno, "block")
    for required in ("kind", "coord", "from"):
        if required not in params:
            raise ParseError(f"block needs {required}=...", line=lineno)
    coord, origin, capacity = params["coord"], params["from"], params.get("capacity")
    if coord not in (PSSV, ACTV):
        raise ParseError(f"coord={coord!r} is neither {ACTV} nor {PSSV}", line=lineno)
    scheme, _, ref = origin.partition(":")
    if scheme == "actor" and ref in actors:
        provenance, kind = actors[ref], actors[ref].kind
    elif scheme == "edge" and ref in by_signature:
        provenance, kind = by_signature[ref], "simple"
    else:
        raise ParseError(f"from={origin!r} names no actor or edge of the graph", line=lineno)
    if params["kind"] != kind:
        raise ParseError(f"kind={params['kind']!r} disagrees with {origin}, whose kind is "
                         f"{kind!r}", line=lineno)
    if kind == "simple":
        if coord == ACTV:
            raise ParseError(f"simple block {name!r} must be coordinated {PSSV}", line=lineno)
    elif coord == PSSV and capacity is None:
        raise ParseError("passive block needs capacity=<int>", line=lineno)
    elif coord == ACTV and capacity is not None:
        raise ParseError("active block takes no capacity=<int>", line=lineno)
    try:
        block = Block(provenance, None if capacity is None else _parse_value(capacity))
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
        b = z.blocks[name]  # named after its actor or its edge's signature
        kind, origin = ("simple", "edge") if b.is_simple else (b.kind, "actor")
        line = f"block {name} kind={kind} coord={z.coordination[name]} from={origin}:{name}"
        lines.append(line if b.capacity is None else f"{line} capacity={b.capacity}")
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
