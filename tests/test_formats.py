import random
import re
import sys

import pytest

from graphgen import build_random_app_graph
from pafg.actors import default_library
from pafg.apps import (
    ForkCascadeConfig,
    build_evm_graph,
    build_fork_cascade,
    evm_source_data,
    fork_cascade_source_data,
    generate_evm_inputs,
)
from pafg.dataflow import ActorLibrary, ActorSpec, AppGraphBuilder, ApplicationGraph, DataflowEdge
from pafg.errors import ModelError, PafgError, ParseError
from pafg.formats import (
    _parse_value,
    format_sample,
    parse_graph,
    parse_pafg,
    read_samples,
    serialize_graph,
    serialize_pafg,
    write_samples,
)
from pafg.ir import ACTV
from pafg.runtime import instantiate
from pafg.transform import derive_direct_pafg, passivize_fixpoint
from topologies import (
    FORK_GRAPH,
    PASSIVE_GAIN_PAFG,
    chain_graph,
    interleave_ring_pafg,
    rename_block,
    ten_plus_four_graph,
    unchecked_direct_pafg,
)


@pytest.fixture(scope="module")
def lib():
    return default_library()


def test_parse_two_actor_graph(lib):
    text = """
    actor A gain k=2.0
    actor B snk
    edge A.out -> B.in capacity=16 type=f64
    """
    g = parse_graph(text, lib=lib)
    assert set(g.actors) == {"A", "B"}
    assert g.actor("A").params["k"] == 2.0
    assert g.edge("A", "B").capacity == 16


def test_graph_round_trip(lib):
    g = chain_graph()
    assert parse_graph(serialize_graph(g), lib=lib) == g


def test_random_graph_round_trips(lib):
    rng = random.Random(77)
    for _ in range(25):
        g, _ = build_random_app_graph(rng, max_actors=12)
        assert parse_graph(serialize_graph(g), lib=lib) == g
        direct = derive_direct_pafg(g, lib)
        for z in (direct, passivize_fixpoint(direct, lib)[0]):
            text = serialize_pafg(z)
            parsed = parse_pafg(text, lib=lib)
            assert parsed == z
            assert serialize_pafg(parsed) == text


# actor G's parameters that serialize_graph refuses, and the words of its
# message: each would read back as another value, or split its line. A
# string k="2" is refused by derive_direct_pafg, so it must not be written
# as k=2, which reads back as an int that derive accepts
UNWRITABLE_PARAMS = {
    "string-int": ({"k": "2"}, "k='2' would read back as 2"),
    "string-float": ({"k": "-0.5"}, "k='-0.5' would read back as -0.5"),
    "string-inf": ({"k": "inf"}, "k='inf' would read back as inf"),
    "string-nan": ({"k": "NaN"}, "k='NaN' would read back as nan"),
    "bool": ({"k": True}, "k=True would read back as 'True'"),
    "space": ({"type": "f64 "}, "type 'f64 ' would not read back"),
    "inner-space": ({"k": "a b"}, "k 'a b' would not read back"),
    "hash": ({"k": "x#y"}, "k 'x#y' would not read back"),
    "empty": ({"k": ""}, "k '' would not read back"),
    "key-with-equals": ({"a=b": 1.0}, "key 'a=b' would not read back"),
    "key-with-space": ({"a b": 1.0}, "key 'a b' would not read back"),
}


@pytest.mark.parametrize("case", UNWRITABLE_PARAMS)
def test_serialize_refuses_a_value_that_would_not_read_back(case):
    params, message = UNWRITABLE_PARAMS[case]
    g = AppGraphBuilder().actor("G", "gain", params).build()
    for serialize, z in ((serialize_graph, g), (serialize_pafg, unchecked_direct_pafg(g))):
        with pytest.raises(ModelError, match=f"^actor 'G': {re.escape(message)}"):
            serialize(z)


def test_serialize_refuses_a_name_or_port_that_would_not_read_back():
    for name, kind, message in (("A B", "src", "actor 'A B': name 'A B'"),
                                ("A#", "src", "actor 'A#': name 'A#'"),
                                ("A", "my kind", "actor 'A': kind 'my kind'")):
        with pytest.raises(ModelError, match=f"^{re.escape(message)} would not read back"):
            serialize_graph(AppGraphBuilder().actor(name, kind).build())
    for src_port, snk_port, message in (("o ut", "in", "src_port 'o ut'"),
                                        ("out", "i.n", "snk_port 'i.n'"),
                                        ("out", "", "snk_port ''")):
        e = DataflowEdge("A", src_port, "B", snk_port, 4)
        g = ApplicationGraph({n: ActorSpec(n, "gain") for n in "AB"}, {e.key(): e})
        owner = re.escape(f"edge {e.signature}: {message}")
        with pytest.raises(ModelError, match=f"^{owner} would not read back"):
            serialize_graph(g)


@pytest.mark.parametrize("value", ["abc", "i64", "1e", 0, -7, 10**30, 0.1, -0.0, 1e300,
                                   float("inf"), float("-inf"), float("nan")])
def test_a_written_value_reads_back_as_itself(value):
    g = AppGraphBuilder().actor("G", "gain", k=value).build()
    (word,) = [w[2:] for w in serialize_graph(g).split() if w.startswith("k=")]
    assert repr(_parse_value(word)) == repr(value)


def test_pafg_round_trip_direct(lib):
    z = derive_direct_pafg(chain_graph(), lib)
    assert parse_pafg(serialize_pafg(z), lib=lib) == z


def test_pafg_round_trip_after_passivization(lib):
    for graph in (ten_plus_four_graph(), build_fork_cascade(ForkCascadeConfig(window_size=8))):
        z = derive_direct_pafg(graph, lib)
        opt, _ = passivize_fixpoint(z, lib)
        assert parse_pafg(serialize_pafg(opt), lib=lib) == opt


def test_pafg_round_trip_evm(lib):
    cfg = generate_evm_inputs(seed=3, max_length=8, num_windows=2)
    z = derive_direct_pafg(build_evm_graph(cfg), lib)
    opt, _ = passivize_fixpoint(z, lib)
    assert parse_pafg(serialize_pafg(z), lib=lib) == z
    assert parse_pafg(serialize_pafg(opt), lib=lib) == opt


def test_parse_error_carries_line_number(lib):
    with pytest.raises(ParseError) as err:
        parse_graph("actor A src\nedge A.out -> B.in capacity=4\n", lib=lib)
    assert err.value.line == 2


def test_unknown_directive(lib):
    with pytest.raises(ParseError):
        parse_graph("vertex A src\n", lib=lib)


def test_edge_needs_capacity(lib):
    for edge, message in (
        ("edge A.out -> B.in", "edge needs the form"),
        ("edge A -> B.in capacity=1", "endpoint 'A' is not of the form actor.port"),
        ("edge A.out -> B.in capacity=1 type=f32", "unknown token type 'f32'"),
        ("edge A.out -> B.in type=f64", "edge needs capacity=<int>"),
        ("actor C", "actor needs a name and a kind"),
    ):
        with pytest.raises(ParseError, match=message) as err:
            parse_graph(f"actor A src\nactor B snk\n{edge}\n", lib=lib)
        assert err.value.line == 3


def test_port_bound_twice_is_rejected_without_a_line(lib):
    text = (
        "actor A src\nactor B snk\nactor C snk\n"
        "edge A.out -> B.in capacity=1\nedge A.out -> C.in capacity=1\n"
    )
    with pytest.raises(ParseError, match="^port A.out bound to more than one edge$") as err:
        parse_graph(text, lib=lib)
    assert err.value.line is None


@pytest.mark.parametrize(
    "text, message",
    [
        # each line has a fault; the first in file order is the one reported
        ("actor A nosuchkind\nactor B snk\nedge A.out -> B.in\n",
         "line 1: unknown actor kind 'nosuchkind'"),
        ("actor A src\nactor B snk\nedge A.bogus -> B.in capacity=1\nedge A.out -> C.in\n",
         "line 3: A.bogus is not a declared port of A"),
        ("actor A src\nactor B nosuchkind\nactor A snk\n", "line 2: unknown actor kind"),
        ("actor A src\nactor A snk\nactor B nosuchkind\n", "line 2: vertex 'A' already present"),
        # a line's own fault comes before a fault of the whole graph
        ("actor A src\nactor B snk\nactor C snk\nedge A.out -> B.in capacity=1\n"
         "edge A.out -> C.bogus capacity=1\n", "line 5: C.bogus is not a declared port of C"),
    ],
    ids=["kind-before-edge-form", "port-before-edge-form", "kind-before-duplicate",
         "duplicate-before-kind", "port-before-port-bound-twice"],
)
def test_first_faulty_line_is_reported(lib, text, message):
    with pytest.raises(ParseError, match=f"^{message}"):
        parse_graph(text, lib=lib)


@pytest.mark.parametrize("src, edge", [("type=i64", "type=f64"), ("type=i64", ""),
                                       ("", "type=i64"), ("type=f64", "type=i64")])
def test_source_type_must_match_its_edge(lib, src, edge):
    """A src emits tokens of its type, so its out-edge must carry that type."""
    emitted, carried = (word.partition("=")[2] or "f64" for word in (src, edge))
    text = f"actor S src {src}\nactor B snk\nedge S.out -> B.in capacity=4 {edge}\n"
    message = f"^line 3: S.out emits {emitted} tokens, but the edge has type={carried}$"
    for parse in (parse_graph, parse_pafg):
        with pytest.raises(ParseError, match=message):
            parse(text, lib=lib)
    text = f"actor S src type={emitted}\nactor B snk\nedge S.out -> B.in capacity=4 type={emitted}\n"
    assert parse_graph(text, lib=lib).edge("S", "B").token_type == emitted


@pytest.mark.parametrize("keys", ["color=red", "type=f64 color=red", "capacity_=1"])
def test_edge_rejects_unknown_key(lib, keys):
    text = f"actor S src\nactor A snk\nedge S.out -> A.in capacity=1 {keys}\n"
    key = next(k for k, _ in (t.split("=") for t in keys.split()) if k != "type")
    for parse in (parse_graph, parse_pafg):
        with pytest.raises(ParseError, match=f"line 3: unknown edge key '{key}'"):
            parse(text, lib=lib)


def test_unknown_kind_is_semantic_error(lib):
    with pytest.raises(ParseError) as err:
        parse_graph("actor A warp\n", lib=lib)
    assert err.value.line == 1


def test_duplicate_actor_is_semantic_error(lib):
    with pytest.raises(ParseError) as err:
        parse_graph("actor A src\nactor A src\n", lib=lib)
    assert err.value.line == 2


@pytest.mark.parametrize("parse", [parse_graph, parse_pafg])
def test_actor_named_like_an_edge_signature_is_refused(lib, parse):
    # the edge's simple block would take the actor's block name in a PAFG
    text = "actor A src\nactor B snk\nactor A.out->B.in gain\nedge A.out -> B.in capacity=4\n"
    with pytest.raises(ParseError, match=r"^actor 'A.out->B.in' has the block name of edge "
                                         r"A.out->B.in$"):
        parse(text, lib=lib)


def test_comments_and_blanks_ignored(lib):
    text = "# topology\n\nactor A src  # the source\n"
    g = parse_graph(text, lib=lib)
    assert set(g.actors) == {"A"}


def test_pafg_semantic_checks(lib):
    z = derive_direct_pafg(chain_graph(), lib)
    text = serialize_pafg(z)
    with pytest.raises(ParseError):
        parse_pafg(text + "block X kind=fork coord=actv from=actor:NOPE\n", lib=lib)
    with pytest.raises(ParseError):
        parse_pafg(text + "bedge A -> NOPE\n", lib=lib)
    with pytest.raises(ParseError):
        parse_pafg(text.replace("coord=pssv", "coord=warm", 1), lib=lib)


@pytest.mark.parametrize("port", ["out7", "bogus"])
def test_undeclared_port_is_parse_error(lib, port):
    text = FORK_GRAPH.format(port=port)
    with pytest.raises(ParseError) as err:
        parse_graph(text, lib=lib)
    assert err.value.line == 7
    assert f"F.{port}" in str(err.value)
    # the builder checks no ports, so it can build the faulty graph, and
    # its direct PAFG, which derive_direct_pafg refuses, is built by hand
    g = (
        AppGraphBuilder()
        .actor("S", "src").actor("F", "fork", fanout=2).actor("A", "snk").actor("B", "snk")
        .edge("S.out", "F.in", 1).edge("F.out0", "A.in", 1).edge(f"F.{port}", "B.in", 1)
        .build()
    )
    lines = serialize_pafg(unchecked_direct_pafg(g)).splitlines()
    lineno = next(i for i, line in enumerate(lines, 1) if line.startswith(f"edge F.{port} "))
    with pytest.raises(ParseError) as err:
        parse_pafg("\n".join(lines), lib=lib)
    assert err.value.line == lineno


@pytest.mark.parametrize("old,new", [("B", "BB"), ("A.out->B.in", "B1")])
def test_block_must_be_named_after_its_provenance(lib, old, new):
    text = rename_block(serialize_pafg(derive_direct_pafg(chain_graph(), lib)), old, new)
    lineno = next(i for i, line in enumerate(text.splitlines(), 1) if line.startswith(f"block {new} "))
    with pytest.raises(ParseError) as err:
        parse_pafg(text, lib=lib)
    assert err.value.line == lineno
    assert f"must be named {old!r}" in str(err.value)


def test_pafg_simple_capacity_must_match_edge(lib):
    z = derive_direct_pafg(chain_graph(), lib)
    text = serialize_pafg(z).replace("capacity=100", "capacity=999", 1)
    with pytest.raises(ParseError):
        parse_pafg(text, lib=lib)


@pytest.mark.parametrize("bad", ["abc", "2.5"])
def test_graph_rejects_non_integer_capacity(lib, bad):
    with pytest.raises(ParseError) as err:
        parse_graph(f"actor A src\nactor B snk\nedge A.out -> B.in capacity={bad}\n", lib=lib)
    assert err.value.line == 3


@pytest.mark.parametrize("bad", ["abc", "2.5", "0"])
def test_pafg_rejects_bad_passive_capacity(lib, bad):
    z, _ = passivize_fixpoint(derive_direct_pafg(chain_graph(), lib), lib)
    lines = serialize_pafg(z).splitlines()
    lineno = next(i for i, line in enumerate(lines, 1) if line.startswith("block B "))
    lines[lineno - 1] = lines[lineno - 1].replace("capacity=100", f"capacity={bad}")
    with pytest.raises(ParseError) as err:
        parse_pafg("\n".join(lines), lib=lib)
    assert err.value.line == lineno


@pytest.mark.parametrize(
    "bedge, replaces",
    [
        pytest.param("bedge B -> B", None, id="bedge B -> B"),
        pytest.param("bedge A B", None, id="bedge A B"),
        pytest.param("bedge A -> A.out->B.in", None, id="bedge A -> A.out->B.in"),
        # alternating, but no application edge runs from that buffer to C
        pytest.param("bedge A.out->B.in -> C", None, id="bedge A.out->B.in -> C"),
        pytest.param(
            "bedge B.out0->C.in -> A", "bedge B.out0->C.in -> C", id="rerouted bedge"
        ),
    ],
)
def test_pafg_rejects_self_loop_and_repeated_bedge(lib, bedge, replaces):
    lines = serialize_pafg(derive_direct_pafg(chain_graph(), lib)).splitlines()
    if replaces is None:
        lines.append(bedge)
        lineno = len(lines)
    else:
        lineno = lines.index(replaces) + 1
        lines[lineno - 1] = bedge
    with pytest.raises(ParseError) as err:
        parse_pafg("\n".join(lines), lib=lib)
    assert err.value.line == lineno


def test_pafg_rejects_missing_bedge(lib):
    text = serialize_pafg(derive_direct_pafg(chain_graph(), lib))
    with pytest.raises(ParseError, match="missing bedge A -> A.out->B.in"):
        parse_pafg(text.replace("bedge A -> A.out->B.in\n", ""), lib=lib)


def test_pafg_rejects_actor_without_block(lib):
    text = serialize_pafg(derive_direct_pafg(chain_graph(), lib))
    with pytest.raises(ParseError, match="actor 'C' has no block"):
        parse_pafg(text.replace("block C kind=snk coord=actv from=actor:C\n", ""), lib=lib)
@pytest.mark.parametrize(
    "line, fault",
    [
        ("block", "block needs a name"),
        ("block A kind=src coord=actv from=actor:A", "duplicate block 'A'"),
        ("block B kind=fork coord=actv from=actor:B color", "got 'color'"),
        ("block B kind=fork kind=fork coord=actv from=actor:B", "duplicate key 'kind'"),
        ("block B coord=actv from=actor:B", "block needs kind="),
        ("block B kind=fork from=actor:B", "block needs coord="),
        ("block B kind=fork coord=actv", "block needs from="),
        ("block B kind=fork coord=warm from=actor:B", "coord='warm'"),
        ("block B kind=fork coord=actv from=B", "from='B'"),
        ("block B kind=fork coord=actv from=node:B", "from='node:B'"),
        ("block B kind=fork coord=actv from=actor:NOPE", "from='actor:NOPE'"),
        ("block B kind=fork coord=actv from=edge:A.out->C.in", "from='edge:A.out->C.in'"),
        ("block B kind=fork coord=actv from=7", "from=7"),
        ("block B kind=simple coord=actv from=actor:B", "kind='simple' disagrees"),
        ("block B kind=gain coord=actv from=actor:B", "kind='gain' disagrees"),
        ("block B kind=fork coord=pssv from=edge:A.out->B.in", "kind='fork' disagrees"),
        ("block B kind=fork coord=pssv from=actor:B", "needs capacity="),
        ("block B kind=fork coord=pssv from=actor:B capacity=0", "capacity 0"),
        ("block B kind=fork coord=actv from=actor:B capacity=4", "active block takes no capacity="),
        ("block B kind=fork coord=actv from=actor:B zone=1 color=red", "unknown block key 'color'"),
        ("block B kind=snk coord=actv from=actor:C", "must be named 'C'"),
    ],
)
def test_block_line_rejection_names_its_line_and_key(lib, line, fault):
    lines = serialize_pafg(derive_direct_pafg(chain_graph(), lib)).splitlines()
    lineno = lines.index("block B kind=fork coord=actv from=actor:B") + 1
    lines[lineno - 1] = line
    with pytest.raises(ParseError) as err:
        parse_pafg("\n".join(lines), lib=lib)
    assert err.value.line == lineno
    assert fault in str(err.value)


INTERFACE_RING = """actor F fork fanout=1
actor C snk
edge F.out0 -> C.in capacity=4 type=f64
block C kind=snk coord=actv from=actor:C
block F kind=fork coord=pssv from=actor:F capacity=4
bedge F -> C
"""


def test_ill_formed_coordination_is_rejected_naming_its_block(lib):
    # an active simple block is a fault of its own line; the rest need the
    # whole PAFG or the library, and name only the block
    direct = serialize_pafg(derive_direct_pafg(chain_graph(), lib))
    active_simple = direct.replace("kind=simple coord=pssv", "kind=simple coord=actv", 1)
    lineno = next(i for i, line in enumerate(active_simple.splitlines(), 1)
                  if "coord=actv from=edge:" in line)
    for text, message, line in (
        (active_simple, "simple block 'A.out->B.in' must be coordinated pssv", lineno),
        (INTERFACE_RING, "passive interface block 'F' is not supported", None),
        (PASSIVE_GAIN_PAFG, "computational block 'G' must be coordinated actv", None),
        (interleave_ring_pafg(capacity=1),
         "passive block 'IL': a ring with 2 write ports needs capacity >= 2, got 1", None),
    ):
        with pytest.raises(ParseError) as err:
            parse_pafg(text, lib=lib)
        assert err.value.line == line
        assert str(err.value) == (message if line is None else f"line {line}: {message}")


def test_sample_round_trip(tmp_path, lib):
    values = [0.1, -1.5, 2.0 / 3.0, 1e-17, 123456.789]
    path = tmp_path / "samples.txt"
    write_samples(path, values)
    assert read_samples(path) == values
    ints = [3, -7, 0]
    write_samples(path, ints)
    assert read_samples(path, token_type="i64") == ints


def test_format_sample_precision():
    v = 0.1 + 0.2
    assert float(format_sample(v)) == v


def test_bad_sample_file(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1.0\n\nnope\n", encoding="utf-8")  # a blank line is skipped but counted
    with pytest.raises(ParseError) as err:
        read_samples(path)
    assert err.value.line == 3


@pytest.mark.parametrize(
    "text, value",
    [
        ("12", 12), ("-3", -3), ("+4", 4), ("1_000", 1000), ("007", 7),
        ("1.5", 1.5), ("1e3", 1000.0), ("inf", float("inf")), ("-inf", float("-inf")),
        ("Infinity", float("inf")), ("1_0.5", 10.5), (".5", 0.5), ("5.", 5.0),
        ("0x10", "0x10"), ("actor:F1", "actor:F1"), ("i64", "i64"), ("", ""),
        ("1__0", "1__0"), ("_1", "_1"), ("1_", "1_"), ("1e", "1e"), (".", "."),
        ("nan(1)", "nan(1)"), ("infinit", "infinit"), ("\u0663", 3), (" 7 ", 7),
        ("INF", float("inf")), ("interleave", "interleave"), ("name", "name"), ("nano", "nano"),
    ],
)
def test_parse_value_types(text, value):
    parsed = _parse_value(text)
    assert type(parsed) is type(value) and parsed == value


@pytest.mark.parametrize("key", ["kind", "name"])
def test_actor_parameter_named_like_a_builder_argument(lib, key):
    # parameters reach the builder as one dict, so kind= and name= are
    # recorded like any other; src takes neither, so a file is refused
    g = AppGraphBuilder().actor("A", "src", {key: "x"}).build()
    assert g.actor("A").kind == "src" and g.actor("A").name == "A"
    assert g.actor("A").params == {key: "x"}
    text = f"actor A src {key}=x\nactor B snk\nedge A.out -> B.in capacity=4\n"
    with pytest.raises(ParseError, match=f"^line 1: A: src takes no parameter '{key}'$"):
        parse_graph(text, lib=lib)


def test_parse_value_nan():
    parsed = _parse_value("nan")
    assert isinstance(parsed, float) and parsed != parsed


def reference_parse_value(text):
    """What a value parses to by definition: int() if it accepts the text,
    else float() if it does, else the text."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def test_parse_value_matches_int_then_float():
    rng = random.Random(12)
    alphabet = "0123456789_.eE+-iInNfFtTyYaAx \t\x1c\xa0\u0663\u0130"
    for _ in range(20000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 7)))
        parsed, expected = _parse_value(text), reference_parse_value(text)
        assert type(parsed) is type(expected), text
        assert parsed == expected or parsed != parsed and expected != expected, text


@pytest.mark.parametrize("limit", [None, 640])
def test_parse_value_past_the_int_digit_limit(limit):
    """int() refuses more digits than the interpreter's limit and float()
    reads them, so a long numeral may be a float."""
    default = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit is not None and not default:
        pytest.skip("this interpreter has no int digit limit")
    try:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
        for text in ("1" * 5000, "-" + "2_3" * 400, "9" * 640, " 8" + "0" * 700):
            parsed, expected = _parse_value(text), reference_parse_value(text)
            assert type(parsed) is type(expected) and parsed == expected
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(default)


@pytest.mark.parametrize(
    "line, message",
    [
        ("actor S src type=f32", "bad token type 'f32'"),
        ("actor F fork fanout=0", "fork fanout 0 is not an int >= 1"),
        ("actor F fork fanout=x", "fork fanout 'x' is not an int >= 1"),
        ("actor G gain k=abc", "gain k 'abc' is not an int or float"),
        ("actor G gain-fork k=abc", "gain k 'abc' is not an int or float"),
    ],
)
def test_bad_parameter_is_parse_error_on_its_line(lib, line, message):
    name, kind = line.split()[1:3]
    text = f"actor A src\n# {name} follows\n{line}\nactor B snk\n"
    with pytest.raises(ParseError, match=f"^line 3: {name}: {message}$"):
        parse_graph(text, lib=lib)
    lines = serialize_pafg(derive_direct_pafg(chain_graph(), lib)).splitlines()
    lines[1:1] = [line]
    lines.append(f"block {name} kind={kind} coord=actv from=actor:{name}")
    with pytest.raises(ParseError, match=f"^line 2: {name}: {message}$"):
        parse_pafg("\n".join(lines), lib=lib)


def test_parse_and_fixpoint_build_no_actor():
    """Parsing and passivizing read declarations; only instantiate builds
    actors, one per active block."""
    base = default_library()
    built = []
    lib = ActorLibrary()
    for kind in ("src", "snk", "acc", "gain", "fork"):
        e = base.entry(kind)
        make = e.active_factory
        lib.register(
            kind, lambda spec, make=make: built.append(spec.name) or make(spec),
            e.passive_factory, e.declare,
        )
    graph = build_fork_cascade(ForkCascadeConfig(window_size=4, num_forks=3))
    text = serialize_pafg(derive_direct_pafg(parse_graph(serialize_graph(graph), lib=lib), lib))
    optimized, log = passivize_fixpoint(parse_pafg(text, lib=lib), lib)
    parsed = parse_pafg(serialize_pafg(optimized), lib=lib)
    assert len(log) == 3 and built == []
    instantiate(parsed, lib, {"SRC": [1.0] * 4})
    assert sorted(built) == sorted(n for n in parsed.blocks if parsed.coordination[n] == ACTV)


# Words a mutant puts in place of a token, or of a key's value
MUTANT_WORDS = (
    "kind=x", "name=x", "capacity=0", "capacity=1", "type=i64", "type=f64", "coord=pssv",
    "fanout=3", "nan", "True", "->", "#",
)


def mutate(rng, lines):
    """One to three mutations of a file's lines: a line deleted, duplicated
    or swapped with another, a token or a key's value replaced, the
    capacity of a passive ring (a pssv non-simple block) set to 0 or 1, the
    type= of a src actor's out-edge flipped, or a capacity= put on an active
    non-simple block."""
    lines = list(lines)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(lines))
        op = rng.randrange(7)
        rings = [j for j, line in enumerate(lines)
                 if "coord=pssv" in line and "kind=simple" not in line]
        words = [line.split() for line in lines]
        srcs = tuple(w[1] + "." for w in words if w[0] == "actor" and w[2:3] == ["src"])
        src_edges = [j for j, w in enumerate(words) if w[0] == "edge" and w[1].startswith(srcs)]
        actives = [j for j, line in enumerate(lines)
                   if "coord=actv" in line and "kind=simple" not in line]
        if op == 4 and rings:
            j = rng.choice(rings)
            capacity = f"capacity={rng.randint(0, 1)}"
            lines[j] = " ".join(capacity if t.startswith("capacity=") else t
                                for t in lines[j].split())
        elif op == 5 and src_edges:
            j = rng.choice(src_edges)
            flip = {"type=f64": "type=i64", "type=i64": "type=f64"}
            lines[j] = " ".join(flip.get(t, t) for t in lines[j].split())
        elif op == 6 and actives:
            lines[rng.choice(actives)] += f" capacity={rng.randint(1, 8)}"
        elif op == 0:
            del lines[i]
        elif op == 1:
            lines.insert(i, lines[i])
        elif op == 2:
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            tokens = lines[i].split()
            t = rng.randrange(len(tokens))
            word = rng.choice(MUTANT_WORDS)
            key, sep, _ = tokens[t].partition("=")
            if sep and rng.random() < 0.5:
                word = f"{key}={word.rpartition('=')[2]}"
            tokens[t] = word
            lines[i] = " ".join(tokens)
    return lines


def mutation_sources(lib):
    """(lines, source data) of the direct and optimized PAFG files of a
    small EVM graph and a small fork cascade."""
    evm = generate_evm_inputs(seed=3, max_length=8, num_windows=2)
    cascade = ForkCascadeConfig(window_size=8, num_forks=3)
    sources = []
    for graph, data in (
        (build_evm_graph(evm), evm_source_data(evm)),
        (build_fork_cascade(cascade), fork_cascade_source_data(cascade)),
    ):
        direct = derive_direct_pafg(graph, lib)
        for z in (direct, passivize_fixpoint(direct, lib)[0]):
            sources.append((serialize_pafg(z).splitlines(), data))
    return sources


def run_mutant(lib, text, data):
    """Parse, instantiate and run a mutant; a source the data does not
    name gets two tokens."""
    z = parse_pafg(text, lib=lib)
    sources = [n for n, spec in z.source.actors.items() if lib.make_active(spec).is_source]
    inst = instantiate(z, lib, {n: data.get(n, [1, 2]) for n in sources})
    inst.run(max_iterations=50)


def test_mutated_pafg_files_run_or_raise_a_pafg_error(lib):
    rng = random.Random(2018)
    sources = mutation_sources(lib)
    # each rule a targeted mutation aims at: a passive interleave below its
    # two write ports, a src whose type differs from its out-edge's, and an
    # active block given a capacity
    reached = dict.fromkeys(("write ports needs capacity", "tokens, but the edge has type=",
                             "active block takes no capacity="), 0)
    for _ in range(400):
        lines, data = rng.choice(sources)
        text = "\n".join(mutate(rng, lines)) + "\n"
        try:
            run_mutant(lib, text, data)
        except PafgError as exc:
            for rule in reached:
                reached[rule] += rule in str(exc)
        except Exception as exc:
            pytest.fail(f"{type(exc).__name__}: {exc}\n{text}")
    assert all(reached.values()), reached
