import pytest

from dmwc.fileformat import (
    MAX_VERTICES,
    FormatError,
    ProblemFile,
    from_instance,
    parse,
    serialize,
)
from dmwc.fixtures import hub_fan, two_cycle
from dmwc.oracle import generate_instance


def test_round_trip_vertex():
    for seed in range(20):
        inst = generate_instance(seed, 7, 0.3, 2, 2, 0.2)
        pf = from_instance(inst)
        again = parse(serialize(pf))
        assert again == pf
        assert again.to_instance() == inst
        assert serialize(again) == serialize(pf)  # canonical form is a fixpoint


def test_round_trip_multicut():
    from dmwc.graph import Digraph

    pf = ProblemFile(
        "multicut2",
        Digraph(5, [(0, 2), (2, 1), (3, 4)], {0}),
        2,
        pairs=((0, 1), (3, 4)),
    )
    assert parse(serialize(pf)) == pf


def test_comments_and_blank_lines():
    text = """# a comment
dmwc vertex
n 4   # trailing comment

p 2
t 0
t 1
e 0 2
e 2 1
"""
    pf = parse(text)
    assert pf.kind == "vertex"
    assert pf.graph.vertex_count == 4
    assert pf.terminals == (0, 1)


def test_edge_multiplicity_survives():
    text = "dmwc vertex\nn 3\np 1\nt 0\nt 1\ne 0 2\ne 0 2\ne 2 1\n"
    pf = parse(text)
    assert pf.graph.edges.count((0, 2)) == 2
    assert serialize(pf).count("e 0 2") == 2


def _fails_at(text, line):
    with pytest.raises(FormatError) as err:
        parse(text)
    assert err.value.line == line
    return err.value


def test_diagnostics_carry_position():
    err = _fails_at("n 3\n", 1)  # header missing
    assert "header" in str(err)
    _fails_at("dmwc vertex\nn 3\np x\n", 3)
    _fails_at("dmwc vertex\nn 3\nbogus 1\n", 3)
    _fails_at("dmwc cake\n", 1)
    _fails_at("dmwc vertex\nn 3\np 1\nt 0\ne 1\n", 5)  # wrong arity
    err = _fails_at("dmwc vertex\nn 3\np x\n", 3)
    assert err.column == 3  # points at the bad token, not the directive


def test_columns_come_from_token_offsets():
    err = _fails_at("dmwc vertex\nn n\n", 2)
    assert err.column == 3  # the second 'n', not the directive
    err = _fails_at("dmwc vertex\nn 3\np 1\nt 0\ne -1 -\n", 5)
    assert err.column == 6


def test_missing_lines_and_negative_counts_carry_position():
    # what is missing is only known at the end of the file, reported at line 1
    for text, missing in [
        ("# a comment only\n", "missing 'dmwc <kind>' header"),
        ("dmwc vertex\np 1\nt 0\n", "missing 'n' line"),
        ("dmwc vertex\nn 3\nt 0\n", "missing 'p' line"),
    ]:
        err = _fails_at(text, 1)
        assert err.column == 1
        assert missing in str(err)
    err = _fails_at("dmwc vertex\nn -1\n", 2)
    assert err.column == 3
    assert "vertex count must be non-negative" in str(err)
    err = _fails_at("dmwc vertex\nn 3\n  p -2\n", 3)
    assert err.column == 5
    assert "budget must be non-negative" in str(err)


def test_out_of_range_ids_carry_their_position():
    text = "dmwc vertex\nn 3\np 1\nt 0\nt 1\ne 0 2\ne 1 7\n"
    err = _fails_at(text, 7)
    assert err.column == 5
    err = _fails_at("dmwc multicut2\nn 3\np 1\npair 0 1\npair 2 3\n", 5)
    assert err.column == 8
    # ids before a late 'n' line are checked against it at their own line
    err = _fails_at("dmwc vertex\nt 5\nn 3\np 1\n", 2)
    assert err.column == 3
    # every id slot, behind leading spaces and before a trailing comment
    vertex = "dmwc vertex\nn 3\np 1\nt 0\n"
    pairs = "dmwc multicut2\nn 3\np 1\npair 0 1\n"
    for text, line, column in [
        (vertex + "   t  3 # t 0\n", 5, 7),
        (vertex + "  inf\t-1  # inf 0\n", 5, 7),
        (pairs + " pair  9 2 # pair 0 2\n", 5, 8),
        (pairs + "  pair 2  5# pair 2 0\n", 5, 11),
        (vertex + "e 0 1\n    e 4 1 # e 0 1\n", 6, 7),
        (vertex + "e 0 1\n\te 1   3 # e 1 0\n", 6, 8),
    ]:
        err = _fails_at(text, line)
        assert err.column == column
        assert "out of range 0..2" in str(err)


def test_the_first_fault_is_reported():
    # each line's checks run in order: the directive, then its ids left to right
    err = _fails_at("dmwc vertex\nn 3\np x\nbogus 1\ne 0 9\n", 3)
    assert err.column == 3
    assert "expected an integer, got 'x'" in str(err)
    err = _fails_at("dmwc vertex\nn 3\np 1\nt 0\ne y z\ne 0\n", 5)
    assert err.column == 3
    assert "got 'y'" in str(err)
    # a structural fault beats an earlier out-of-range id, which waits for 'n'
    err = _fails_at("dmwc vertex\nt 7\nn 3\np 1\ne x 1\n", 5)
    assert err.column == 3
    # so does a missing 'p' line, found only at the end of the file
    err = _fails_at("dmwc vertex\nn 3\nt 7\n", 1)
    assert "missing 'p' line" in str(err)
    # a repeated 'n' is reported before its argument is read
    err = _fails_at("dmwc vertex\nn 3\nn x\n", 3)
    assert err.column == 1
    assert "duplicate 'n' line" in str(err)
    # and a 'pair' in the wrong kind before its ids are
    err = _fails_at("dmwc vertex\nn 3\np 1\nt 0\npair x y\n", 5)
    assert err.column == 1
    assert "'pair' lines require the multicut2 kind" in str(err)


@pytest.mark.parametrize(
    "char", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
)
def test_lines_end_only_at_line_feeds_and_carriage_returns(char):
    # str.splitlines() would also end a line at these, so text inside a
    # comment would be read as a directive and later line numbers would drift
    pf = parse(f"dmwc vertex\nn 3\np 1\nt 0\nt 1  # x{char}e 0 1\n")
    assert pf.graph.edges == ()
    err = _fails_at(f"dmwc vertex\nn 3\np 1\nt 0{char}\nt 7\n", 5)
    assert err.column == 3
    # inside a line they separate tokens like any other whitespace
    err = _fails_at(f"dmwc vertex\nn 3{char}p 1\nt 0\nt 7\n", 2)
    assert "directive 'n' takes 1 argument(s), got 3" in str(err)


def test_crlf_and_cr_files_parse():
    text = "dmwc vertex\nn 3\np 1\nt 0\nt 1 # end\ne 0 2\ne 2 1\n"
    for newline in ("\r\n", "\r"):
        assert parse(text.replace("\n", newline)) == parse(text)
        err = _fails_at(text.replace("\n", newline) + "e 0 7" + newline, 8)
        assert err.column == 5


def test_multicut2_takes_exactly_two_pairs():
    text = "dmwc multicut2\nn 6\np 1\npair 0 1\npair 2 3\n  pair 4 5\n"
    err = _fails_at(text, 6)
    assert err.column == 3
    assert "exactly two 'pair' lines" in str(err)
    err = _fails_at("dmwc multicut2\nn 3\np 1\npair 0 1\n", 1)
    assert "exactly two 'pair' lines" in str(err)


def test_duplicate_header_lines_rejected():
    err = _fails_at("dmwc vertex\nn 3\np 1\nt 0\np 2\n", 5)
    assert "duplicate 'p'" in str(err)
    err = _fails_at("dmwc vertex\nn 3\np 1\nn 4\nt 0\n", 4)
    assert "duplicate 'n'" in str(err)
    err = _fails_at("dmwc vertex\nn 3\ndmwc edge\n", 3)
    assert "duplicate 'dmwc'" in str(err)
    # a second header is a duplicate before its argument count is looked at
    err = _fails_at("dmwc vertex\nn 3\ndmwc\n", 3)
    assert "duplicate 'dmwc'" in str(err)


def test_vertex_count_ceiling(monkeypatch):
    # a stand-in graph records what the parser would have allocated
    built = []
    monkeypatch.setattr("dmwc.fileformat.Digraph", lambda n, *rest: built.append(n))
    err = _fails_at("dmwc vertex\nn 10000000000\np 1\nt 0\n", 2)
    assert err.column == 3
    assert f"exceeds the limit {MAX_VERTICES}" in str(err)
    assert built == []
    parse(f"dmwc vertex\nn {MAX_VERTICES}\np 1\nt 0\n")
    assert built == [MAX_VERTICES]


def test_structural_checks():
    with pytest.raises(FormatError):
        parse("dmwc vertex\nn 3\np 1\n")  # no terminals
    with pytest.raises(FormatError):
        parse("dmwc multicut2\nn 3\np 1\n")  # no pairs
    with pytest.raises(FormatError):
        parse("dmwc vertex\nn 3\np 1\nt 9\n")  # id out of range
    with pytest.raises(FormatError):
        parse("dmwc vertex\nn 3\np 1\nt 0\ne 0 9\n")
    with pytest.raises(FormatError):
        parse("dmwc vertex\nn 3\np 1\nt 0\npair 0 1\n")  # wrong kind for pair
    with pytest.raises(FormatError):
        parse("dmwc multicut2\nn 3\np 1\nt 0\n")  # wrong kind for t


def test_fixture_round_trips():
    for inst in (two_cycle(2), hub_fan(3, 2).instance):
        pf = from_instance(inst)
        assert parse(serialize(pf)).to_instance() == inst


def test_from_instance_validates_kind():
    with pytest.raises(ValueError):
        from_instance(two_cycle(2), kind="multicut2")


def test_multicut_to_instance_rejected():
    from dmwc.graph import Digraph

    pf = ProblemFile("multicut2", Digraph(2), 1, pairs=((0, 1), (1, 0)))
    with pytest.raises(ValueError):
        pf.to_instance()
