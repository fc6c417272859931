"""Graph text files: the numpy writer and parser in core against the
line-by-line reference in oracles, on clean texts, on texts mutated within
the grammar, and on malformed ones; again with row blocks and text chunks
small enough that every line, edge and error lands near a chunk boundary;
and the parser's and writer's peak memory against the size of the text."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from cyclecover import core
from cyclecover.core import Graph, graph_from_text, graph_to_text
from cyclecover.seeding import spawn

from oracles import reference_graph_from_text, reference_graph_to_text


def random_graph(n, p, seed):
    rng = spawn(seed, "test-graph-text")
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


DENSITIES = (0.0, 0.1, 0.5, 0.97, 1.0)
SPECIAL = [Graph.empty(0), Graph.empty(1), Graph.complete(7), Graph.cycle(9)]


def sample_graphs(p):
    return [random_graph(n, p, 1000 * n + int(100 * p)) for n in range(81)]


def check_clean(graphs):
    for G in graphs:
        text = graph_to_text(G)
        assert text == reference_graph_to_text(G)
        assert graph_from_text(text) == reference_graph_from_text(text) == G


@pytest.mark.parametrize("p", DENSITIES)
def test_writer_and_parser_match_reference(p):
    check_clean(sample_graphs(p) + SPECIAL)


def mutate(text, rng):
    """The same graph in another spelling the grammar allows: comment and
    blank lines anywhere, CRLF endings, tabs and runs of spaces between and
    around tokens, duplicated edge lines (the header counts them) and
    sometimes no final newline."""
    head, *edges = text.splitlines()
    edges += [rng.choice(edges) for _ in range(rng.randrange(3))] if edges else []
    rng.shuffle(edges)
    n = head.split()[0]
    lines = [f"{n} {len(edges)}"] + edges
    fillers = ["", "   ", "\t", "# a comment", "  #indented comment 1 2 3",
               "#", "# café ∑ -1 +3 x_y"]
    out = []
    for line in lines:
        while rng.random() < 0.3:
            out.append(rng.choice(fillers))
        sep = rng.choice([" ", "\t", "  ", " \t "])
        lead = rng.choice(["", " ", "\t"])
        trail = rng.choice(["", " ", "\t ", "  "])
        out.append(lead + sep.join(line.split()) + trail)
    if rng.random() < 0.5:
        out.append(rng.choice(fillers))
    end = rng.choice(["\n", "\r\n"])
    mutated = end.join(out)
    return mutated if rng.random() < 0.3 else mutated + end


def check_mutated(p):
    rng = spawn(int(100 * p), "test-graph-text-mutate")
    for G in sample_graphs(p)[::4] + SPECIAL:
        for _ in range(3):
            text = mutate(graph_to_text(G), rng)
            assert graph_from_text(text) == reference_graph_from_text(text) == G, text


@pytest.mark.parametrize("p", DENSITIES)
def test_parser_matches_reference_on_mutated_text(p):
    check_mutated(p)


@pytest.mark.parametrize("p", DENSITIES)
def test_tiny_chunks_match_reference(p, monkeypatch):
    monkeypatch.setattr(core, "_TEXT_CHUNK", 64)
    monkeypatch.setattr(core, "_ROW_BLOCK", 3)
    check_clean(sample_graphs(p)[::4] + SPECIAL)
    check_mutated(p)


MALFORMED = {
    "header with 3 tokens": "3 2 1\n0 1\n1 2\n",
    "header with 1 token": "# c\n3\n0 1\n",
    "edge line with 1 token": "3 2\n0 1\n1\n",
    "edge line with 3 tokens": "3 2\n0 1\n1 2 0\n",
    # lines that keep the writer's alternation of one space and one newline
    # but not its shape
    "edge line with 4 tokens": "3 2\n0 1 1 2\n",
    "edge line with 1 token after a space": "3 2\n0 1\n 2\n",
    "edge line with 1 token before a space": "3 2\n0 1\n2 \n",
    "two edge lines with 1 token": "3 1\n0\n1\n",
    "header count one high": "3 2\n0 1\n",
    "header count one low": "3 2\n0 1\n1 2\n0 2\n",
    "loop": "3 2\n0 1\n2 2\n",
    "out-of-range id": "3 2\n0 1\n1 3\n",
    "first bad line wins": "3 2\n0 1 2\n1\n",
    "bad header before bad edge line": "3 2 1\n0 1\n1\n",
    "first offending edge wins": "4 3\n0 1\n3 4\n2 2\n",
    "loop outside the range": "3 1\n5 5\n",
    "id past int64": "3 1\n0 99999999999999999999999\n",
    "id past int64 whose last 18 digits are in range": "3 1\n0 1" + "0" * 19 + "2\n",
    "line shape before count": "3 5\n1 1\n0 1 2\n",
    "line shape before loop": "3 2\n1 1\n0 1 2\n",
    "CRLF edge line": "3 2\r\n0 1\r\n1 2 0\r\n",
    "tab-separated bad line": "3 2\n0\t1\n\t1\t2\t0\t\n",
    "edges on a zero-vertex graph": "0 1\n0 1\n",
    "empty text": "",
    "comment-only text": "# a\n\n   # b\n\t\n",
    # too many vertices for an n x n matrix: the count is still checked first
    "count wrong on a huge header": "10000000000 1\n0 1\n0 2\n",
    # whitespace to str.strip() and str.split() that the grammar rejects:
    # the message quotes the line with the offending character in it
    "vertical tab": "3 1\n0 1\x0b\n",
    "form feed": "3 1\n0 1\x0c\n",
    "next line": "3 1\n0 1\x85\n",
    "line separator": "3 1\n0 1\u2028\n",
}


@pytest.mark.parametrize("text", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_text_raises_reference_message(text):
    with pytest.raises(ValueError) as expected:
        reference_graph_from_text(text)
    with pytest.raises(ValueError) as got:
        graph_from_text(text)
    assert str(got.value) == str(expected.value)


# Texts whose lines and errors straddle chunks; each is parsed at every
# chunk size from one character to its whole length.
PAD = "# a comment longer than a chunk\n\n\t \n"
WRITTEN = "0 1\n1 2\n2 3\n"
BOUNDARY = {
    "first chunk only comments and blanks": PAD + PAD + "3 2\n0 1\n1 2\n",
    "CRLF ends everywhere": "3 3\r\n0 1\r\n" + PAD.replace("\n", "\r\n") + "1   2\t\r\n2 0\r\n",
    "bad header in a later chunk": PAD + PAD + "3 2 1\n0 1\n1 2\n",
    "bad edge line in a later chunk": "3 2\n0 1\n" + PAD + "1 2 0\n",
    "late count mismatch beats an early loop": "3 3\n1 1\n0 1\n" + PAD + "1 2\n0 2\n",
    "late bad line beats an early loop": "3 3\n1 1\n0 1\n" + PAD + "1 2 0\n",
    "first out-of-range edge in a later chunk": "3 4\n0 1\n1 2\n" + PAD + "2 5\n1 1\n",
    "lone carriage returns as blanks": "3 2\n0\r1\n\r1\r2\r\n",
    # chunks in the writer's layout, which skip the line scan, between lines
    # that need it: a comment holding digits, CRLF, a double and a trailing space
    "writer layout between other spellings": "4 18\n" + WRITTEN + "# 3 3\n" + WRITTEN + "0 3\r\n"
                                              + WRITTEN + "1  3\n" + WRITTEN + "2 3 \n" + WRITTEN,
    "zero-padded id past 18 digits": "3 1\n" + "0" * 24 + "1 2\n",
    "zero-padded id past 18 digits on a CRLF line": "3 1\r\n" + "0" * 24 + "1\t2\r\n",
    "header only": "5 0\n",
    # chunks whose edge lines all share one shape, read as one fixed-width matrix
    "loop in a one-shape chunk": "20 5\n10 11\n12 13\n14 14\n15 16\n11 19\n",
    "out-of-range id in a one-shape chunk": "20 4\n10 11\n12 13\n14 25\n15 16\n",
    "zero-padded ids in a one-shape chunk": "20 4\n010 011\n012 013\n001 019\n000 002\n",
    "19-digit tokens in a one-shape chunk": "20 3\n" + "0" * 17 + "10 11\n" + "0" * 17 + "12 13\n"
                                            + "9" * 19 + " 14\n",
    "header count wrong for a one-shape chunk": "20 5\n10 11\n12 13\n14 15\n16 17\n",
    # lines of one length that hold other blanks: the line scan reads them
    **{f"equal-length lines with {what}": text for what, text in (
        ("CRLF ends", "20 3\r\n10 11\r\n12 13\r\n14 15\r\n"),
        ("tabs", "20 3\n10\t11\n12\t13\n14\t15\n"),
        ("two spaces", "20 3\n12 13\n1  11\n14 15\n"))},
}


@pytest.mark.parametrize("text", [*MALFORMED.values(), *BOUNDARY.values()],
                         ids=[*MALFORMED.keys(), *BOUNDARY.keys()])
def test_every_chunk_size_matches_reference(text, monkeypatch):
    try:
        expected = reference_graph_from_text(text)
    except ValueError as exc:
        expected = str(exc)
    for size in range(1, len(text) + 1):
        monkeypatch.setattr(core, "_TEXT_CHUNK", size)
        try:
            got = graph_from_text(text)
        except ValueError as exc:
            got = str(exc)
        assert got == expected, size


def counting(monkeypatch, name):
    """Patch core.<name> to log the call arguments; returns the log."""
    calls = []
    real = getattr(core, name)

    def logged(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(core, name, logged)
    return calls


@pytest.mark.parametrize("what", ["CRLF ends", "tabs", "two spaces"])
def test_equal_length_lines_with_other_blanks_take_the_line_scan(what, monkeypatch):
    text = BOUNDARY[f"equal-length lines with {what}"]
    blocks = counting(monkeypatch, "_read_block")
    assert graph_from_text(text) == reference_graph_from_text(text)
    assert blocks == []


def test_sorted_writer_text_is_read_as_fixed_width_blocks(monkeypatch):
    """The n = 1000 bench host: past its first rows, every chunk of the
    sorted text is a run of lines of one shape."""
    from cyclecover.generators import GNP_REPAIRED, GeneratorSpec, generate

    G = generate(GeneratorSpec(GNP_REPAIRED, 1000, p=0.97, delta_target=750, seed=0))
    text = graph_to_text(G)
    blocks = counting(monkeypatch, "_read_block")
    assert graph_from_text(text) == G
    assert sum(rows for _, _, rows, _, _ in blocks) >= 0.8 * G.edge_count()


def test_shuffled_writer_text_past_the_shape_limit_matches_reference(monkeypatch):
    """Edge lines in the writer's layout but in random order change shape on
    most lines, so each chunk gathers its ids digit by digit."""
    G = random_graph(300, 0.5, 7)
    head, *edges = graph_to_text(G).splitlines()
    spawn(7, "test-graph-text-shuffle").shuffle(edges)
    text = "\n".join([head, *edges]) + "\n"
    monkeypatch.setattr(core, "_TEXT_CHUNK", 1 << 13)
    blocks = counting(monkeypatch, "_read_block")
    gathers = counting(monkeypatch, "_read_ids")
    assert graph_from_text(text) == reference_graph_from_text(text) == G
    assert blocks == [] and len(gathers) > 1


def test_leading_zeros_parse_as_decimal():
    text = "003 02\n000 0001\n01 2\n"
    path = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert graph_from_text(text) == reference_graph_from_text(text) == path


# Tokens that Python's int() takes but the ASCII grammar does not: both
# parsers report the line.
NON_GRAMMAR = ["+1 2", "1_0 2", "-1 2", "١ 2", "1 ２"]


@pytest.mark.parametrize("line", NON_GRAMMAR)
def test_tokens_outside_the_grammar_are_bad_lines(line):
    for text, what in ((f"12 2\n0 1\n{line}\n", "bad edge line"),
                       (f"# c\n{line}\n", "bad header")):
        for parse in (graph_from_text, reference_graph_from_text):
            with pytest.raises(ValueError) as got:
                parse(text)
            assert str(got.value) == f"{what} {line!r}"


PEAK_SCRIPT = """
import tracemalloc
from cyclecover.core import graph_from_text, graph_to_text
from cyclecover.generators import GNP_REPAIRED, GeneratorSpec, generate

G = generate(GeneratorSpec(GNP_REPAIRED, 1000, p=0.97, delta_target=750, seed=0))
text = graph_to_text(G)
for call, arg in ((graph_to_text, G), (graph_from_text, text)):
    tracemalloc.start()
    call(arg)
    print(tracemalloc.get_traced_memory()[1] / len(text))
    tracemalloc.stop()
"""


def test_peak_memory_is_a_small_multiple_of_the_text():
    """The n = 1000 bench host: a 3.8 MB text. Writing or reading it took
    about ten times that when both worked on the whole text at once."""
    env = dict(os.environ, PYTHONPATH=str(Path(core.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", PEAK_SCRIPT], env=env, capture_output=True,
                         text=True, check=True, timeout=120).stdout.split()
    write_peak, read_peak = map(float, out)
    assert write_peak <= 4.0
    assert read_peak <= 4.0
