import gc
import io
import os
import sys
import warnings

import pytest

from dmwc.cli import main
from dmwc.fileformat import MAX_VERTICES, from_instance, parse, serialize
from dmwc.fixtures import hub_fan, two_cycle


@pytest.fixture
def two_cycle_file(tmp_path):
    path = tmp_path / "two_cycle.dmwc"
    path.write_text(serialize(from_instance(two_cycle(2))))
    return str(path)


def test_solve_feasible(two_cycle_file, capsys):
    assert main(["solve", two_cycle_file]) == 0
    assert capsys.readouterr().out.strip() == "SOLUTION 2 2 3"


def test_solve_infeasible_budget_override(two_cycle_file, capsys):
    assert main(["solve", two_cycle_file, "--budget", "1"]) == 1
    assert capsys.readouterr().out.strip() == "NO"


def test_solve_min_budget_search(two_cycle_file, capsys):
    assert main(["solve", two_cycle_file, "--budget", "4", "--min-budget-search"]) == 0
    captured = capsys.readouterr()
    assert captured.out.strip() == "SOLUTION 2 2 3"
    assert "minimum feasible budget: 2" in captured.err


def test_failed_verification_is_not_reported_as_no(two_cycle_file, capsys, monkeypatch):
    monkeypatch.setattr("dmwc.pipeline.verify_solution", lambda inst, s: False)
    assert main(["solve", two_cycle_file]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "failed verification" in captured.err


def test_solver_bug_exits_4_in_every_subcommand(tmp_path, capsys, monkeypatch):
    # a failed internal check of the solver is a bug, which must not read as
    # "no solution" in any subcommand
    path = tmp_path / "path.dmwc"
    path.write_text("dmwc vertex\nn 3\np 1\nt 0\nt 2\ne 0 1\ne 1 2\n")
    sol = tmp_path / "cut.txt"
    sol.write_text("SOLUTION 1 1\n")

    def broken(*args):
        raise RuntimeError("cut extraction disagrees with flow value")

    for target, argv in (
        ("dmwc.cli.enumerate_important",
         ["enumerate-seps", str(path), "--source", "0", "--target", "2", "--budget", "1"]),
        ("dmwc.cli.shadow", ["shadow", str(path), "--set", ""]),
        ("dmwc.cli.verify_solution", ["verify", str(path), "--solution", str(sol)]),
    ):
        monkeypatch.setattr(target, broken)
        assert main(argv) == 4, target
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "cut extraction" in captured.err
    # the important-separator recursion's depth guard, with a flow that
    # returns the same separator at every node
    monkeypatch.undo()
    monkeypatch.setattr("dmwc.separators.min_vertex_separator", lambda *args: frozenset({1}))
    assert main(["enumerate-seps", str(path), "--source", "0", "--target", "2", "--budget", "1"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: important-separator recursion exceeded depth bound\n"


def test_solve_stdin(two_cycle_file, capsys, monkeypatch):
    import io

    with open(two_cycle_file, encoding="utf-8") as f:
        monkeypatch.setattr("sys.stdin", io.StringIO(f.read()))
    assert main(["solve", "-"]) == 0
    assert capsys.readouterr().out.startswith("SOLUTION")


def test_generated_yes_instance_is_solved(tmp_path, capsys):
    # a YES file: solve must find its cut and never print NO
    args = ["gen", "--seed", "10", "--n", "16", "--density", "0.156", "--k", "2", "--p", "2"]
    assert main(args) == 0
    path = tmp_path / "gen.dmwc"
    path.write_text(capsys.readouterr().out)
    assert main(["solve", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "SOLUTION 2 7 13"


def test_malformed_file_is_input_error(tmp_path, capsys):
    path = tmp_path / "bad.dmwc"
    path.write_text("dmwc vertex\nn x\n")
    assert main(["solve", str(path)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_missing_file_is_input_error(capsys):
    assert main(["solve", "/no/such/file.dmwc"]) == 2


def test_closed_stdout_is_not_an_input_error(monkeypatch, capsys):
    # as in `dmwc gen ... | true`, where the reader exits before gen writes
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(["solve", "/no/such/file.dmwc"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert main(["gen", "--n", "40", "--density", "0.5"]) == 141
    assert capsys.readouterr().err == ""
    # stdout now goes to devnull, so the flush at exit raises nothing
    assert sys.stdout.name == os.devnull
    sys.stdout.close()


def test_bad_flag_is_input_error(two_cycle_file):
    assert main(["solve", two_cycle_file, "--budget", "nope"]) == 2
    assert main(["frobnicate"]) == 2


def test_enumerate_seps(tmp_path, capsys):
    fx = hub_fan(3, 2)
    path = tmp_path / "hub.dmwc"
    path.write_text(serialize(from_instance(fx.instance)))
    code = main(
        [
            "enumerate-seps",
            str(path),
            "--source",
            str(fx.c(1, 2)),
            "--target",
            f"{fx.t(1)},{fx.t(2)}",
            "--budget",
            "2",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out.strip()
    assert out == f"SEP 2 {fx.a(1)} {fx.a(2)}"
    assert main(["enumerate-seps", str(path), "--source", "", "--target", "0", "--budget", "1"]) == 2
    negative = ["enumerate-seps", str(path), "--source", "0", "--target", "2", "--budget", "-1"]
    assert main(negative) == 2
    assert "budget must be non-negative" in capsys.readouterr().err


def test_shadow_command(tmp_path, capsys):
    fx = hub_fan(3, 2)
    path = tmp_path / "hub.dmwc"
    path.write_text(serialize(from_instance(fx.instance)))
    s = f"{fx.a(1)},{fx.a(2)}"
    assert main(["shadow", str(path), "--set", s]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    labels = [line.split()[0] for line in lines]
    assert labels == ["FORWARD", "REVERSE", "EXACT-FORWARD", "EXACT-REVERSE"]
    rev = lines[1].split()
    assert rev[1:] == ["3", str(fx.b(1)), str(fx.b(2)), str(fx.c(1, 2))]
    assert lines[3].split()[1:] == ["1", str(fx.c(1, 2))]
    # terminals in the set is an input error
    assert main(["shadow", str(path), "--set", "0"]) == 2
    # so is a multicut2 file, which has no terminals
    mc = tmp_path / "mc.dmwc"
    mc.write_text("dmwc multicut2\nn 4\np 1\npair 0 1\npair 2 3\ne 0 1\n")
    capsys.readouterr()
    assert main(["shadow", str(mc), "--set", ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_gen_fixture_round_trip(tmp_path, capsys):
    assert main(["gen", "--fixture", "twocycle:p=2"]) == 0
    text = capsys.readouterr().out
    path = tmp_path / "gen.dmwc"
    path.write_text(text)
    assert main(["solve", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "SOLUTION 2 2 3"


def test_gen_seeded_is_deterministic(capsys):
    assert main(["gen", "--seed", "5", "--n", "6"]) == 0
    first = capsys.readouterr().out
    assert main(["gen", "--seed", "5", "--n", "6"]) == 0
    assert capsys.readouterr().out == first


def test_gen_caps_vertex_count(capsys, monkeypatch):
    # an n the parser would reject fails before any coin is drawn
    def forbidden(*args):
        raise AssertionError("generator called")

    monkeypatch.setattr("dmwc.cli.generate_instance", forbidden)
    assert main(["gen", "--n", str(MAX_VERTICES + 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and str(MAX_VERTICES) in captured.err
    # so does a fixture: remark2 at r = 446, k = 2 would have 2 + 892 + 99,235
    # vertices, rejected before any of its edges is built
    monkeypatch.setattr("dmwc.fixtures.HubFanFixture.a", forbidden)
    assert main(["gen", "--fixture", "remark2:r=446,k=2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: vertex count 100129 exceeds the limit {MAX_VERTICES}\n"
    monkeypatch.undo()
    # at the bound itself: hub_fan(3, 2) has 2 + 6 + 3 = 11 vertices
    monkeypatch.setattr("dmwc.fixtures.MAX_VERTICES", 11)
    assert main(["gen", "--fixture", "remark2:r=3,k=2"]) == 0
    assert capsys.readouterr().out.startswith("dmwc vertex\nn 11\n")
    monkeypatch.setattr("dmwc.fixtures.MAX_VERTICES", 10)
    assert main(["gen", "--fixture", "remark2:r=3,k=2"]) == 2
    assert capsys.readouterr().err == "error: vertex count 11 exceeds the limit 10\n"


def test_verify_round_trip(two_cycle_file, tmp_path, capsys):
    assert main(["solve", two_cycle_file]) == 0
    answer = capsys.readouterr().out
    sol = tmp_path / "answer.txt"
    sol.write_text(answer)
    assert main(["verify", two_cycle_file, "--solution", str(sol)]) == 0
    assert capsys.readouterr().out.strip() == "OK"
    bad = tmp_path / "bad.txt"
    bad.write_text("2\n")
    assert main(["verify", two_cycle_file, "--solution", str(bad)]) == 1
    assert capsys.readouterr().out.strip() == "INVALID"


def test_edge_file_solve_and_verify(tmp_path, capsys):
    # an edge answer lists indices into the file's edge list
    path = tmp_path / "edge.dmwc"
    path.write_text(serialize(from_instance(two_cycle(2), "edge")))
    assert main(["solve", str(path)]) == 0
    answer = capsys.readouterr().out
    assert answer.strip() == "SOLUTION 2 1 2"
    sol = tmp_path / "answer.txt"
    sol.write_text(answer)
    assert main(["verify", str(path), "--solution", str(sol)]) == 0
    assert capsys.readouterr().out.strip() == "OK"
    sol.write_text("SOLUTION 1 1\n")  # 1 -> 3 -> 0 survives
    assert main(["verify", str(path), "--solution", str(sol)]) == 1
    assert capsys.readouterr().out.strip() == "INVALID"


def test_verify_rejects_malformed_solution_line(two_cycle_file, tmp_path, capsys):
    # the count must be an integer equal to the number of ids that follow
    sol = tmp_path / "answer.txt"
    for text in ("SOLUTION 5 2\n", "SOLUTION x 2\n", "SOLUTION\n"):
        sol.write_text(text)
        assert main(["verify", two_cycle_file, "--solution", str(sol)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
    # a bare id list stays valid, and so does a count with a leading zero
    for text in ("2 3\n", "SOLUTION 02 2 3\n"):
        sol.write_text(text)
        assert main(["verify", two_cycle_file, "--solution", str(sol)]) == 0
        assert capsys.readouterr().out.strip() == "OK"


@pytest.mark.parametrize("text, distinct, repeated", [
    (serialize(from_instance(two_cycle(2))), "SOLUTION 2 2 3\n", "SOLUTION 3 2 3 3\n"),
    ("dmwc edge\nn 2\np 1\nt 0\nt 1\ne 0 1\n", "SOLUTION 1 0\n", "SOLUTION 2 0 0\n"),
    ("dmwc multicut2\nn 3\np 1\npair 1 2\npair 2 1\ne 1 0\ne 0 2\ne 2 0\ne 0 1\n",
     "SOLUTION 1 0\n", "SOLUTION 2 0 0\n"),
], ids=["vertex", "edge", "multicut2"])
def test_verify_rejects_repeated_ids(tmp_path, capsys, text, distinct, repeated):
    # the same ids listed once are a valid cut; listed twice they are no answer
    path = tmp_path / "problem.dmwc"
    path.write_text(text)
    sol = tmp_path / "answer.txt"
    sol.write_text(distinct)
    assert main(["verify", str(path), "--solution", str(sol)]) == 0
    assert capsys.readouterr().out.strip() == "OK"
    sol.write_text(repeated)
    assert main(["verify", str(path), "--solution", str(sol)]) == 1
    assert capsys.readouterr().out.strip() == "INVALID"


def test_verify_multicut_rejects_undeletable_vertex(tmp_path, capsys):
    # cutting 4 would separate both pairs, but 4 is an `inf` vertex
    path = tmp_path / "mc.dmwc"
    path.write_text("dmwc multicut2\nn 5\np 1\npair 0 1\npair 2 3\ninf 4\n"
                    "e 0 4\ne 4 1\ne 2 4\ne 4 3\n")
    sol = tmp_path / "cut.txt"
    sol.write_text("SOLUTION 1 4\n")
    assert main(["verify", str(path), "--solution", str(sol)]) == 1
    assert capsys.readouterr().out.strip() == "INVALID"
    assert main(["solve", str(path)]) == 1
    assert capsys.readouterr().out.strip() == "NO"


def test_input_files_are_closed(two_cycle_file, tmp_path, capsys):
    sol = tmp_path / "answer.txt"
    sol.write_text("SOLUTION 2 2 3\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        assert main(["verify", two_cycle_file, "--solution", str(sol)]) == 0
        assert main(["solve", two_cycle_file]) == 0
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_gen_seed_defaults_to_zero_without_reading_the_environment(capsys, monkeypatch):
    assert main(["gen", "--seed", "0", "--n", "6"]) == 0
    seed0 = capsys.readouterr().out
    assert main(["gen", "--seed", "5", "--n", "6"]) == 0
    assert capsys.readouterr().out != seed0
    monkeypatch.setenv("DMWC_SEED", "5")
    assert main(["gen", "--n", "6"]) == 0
    assert capsys.readouterr().out == seed0


def test_gen_rejects_a_repeated_fixture_parameter(capsys):
    assert main(["gen", "--fixture", "twocycle:p=1,p=3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: repeated fixture parameter 'p'\n"


def test_bad_ids_name_their_option_or_file(tmp_path, capsys):
    fx = hub_fan(3, 2)
    path = tmp_path / "hub.dmwc"
    path.write_text(serialize(from_instance(fx.instance)))
    seps = ["enumerate-seps", str(path), "--budget", "2"]
    for argv, where in (
        (seps + ["--source", "4,x", "--target", "0"], "--source"),
        (seps + ["--source", "4", "--target", "0 1.5"], "--target"),
        (["shadow", str(path), "--set", "3,,y"], "--set"),
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        bad = argv[argv.index(where) + 1].replace(",", " ").split()[-1]
        assert captured.err.startswith("usage: dmwc ")
        assert captured.err.endswith(f"error: argument {where}: {bad!r} is not an integer id\n")
    sol = tmp_path / "answer.txt"
    for text, bad in (("SOLUTION 2 3 z\n", "z"), ("3 0x4\n", "0x4")):
        sol.write_text(text)
        assert main(["verify", str(path), "--solution", str(sol)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: solution file {sol}: {bad!r} is not an integer id\n"


def test_threads_flag_is_unknown(two_cycle_file, capsys):
    # neither a thread count nor the sampling mode and its seed are options
    for flag in (["--threads", "2"], ["--mode", "randomized"], ["--seed", "1"]):
        assert main(["solve", two_cycle_file, *flag]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {' '.join(flag)}" in captured.err


# tokens that Python's int() reads as 10, 1, 3 and 2: an underscore, a sign,
# an Arabic-Indic three and a full-width two
MALFORMED = ("1_0", "+1", "\u0663", "\uff12")

# every integer slot of an instance file, marked {}; filled with 2 each file
# is valid, so the slot's token is its only fault
FILE_SLOTS = (
    "dmwc vertex\nn {}\np 1\nt 0\nt 1\n",
    "dmwc vertex\nn 3\np {}\nt 0\nt 1\n",
    "dmwc edge\nn 3\np 1\nt 0\n  t {}\n",
    "dmwc vertex\nn 3\np 1\nt 0\nt 1\ninf {}\n",
    "dmwc vertex\nn 3\np 1\nt 0\nt 1\ne {} 2\n",
    "dmwc vertex\nn 3\np 1\nt 0\nt 1\ne 2   {}\n",
    "dmwc multicut2\nn 4\np 1\npair {} 1\npair 2 3\n",
    "dmwc multicut2\nn 4\np 1\npair 0 1\npair 3 {}  # comment\n",
)


@pytest.mark.parametrize("token", MALFORMED)
def test_one_integer_rule_for_every_input(tmp_path, capsys, token):
    # each input that holds an integer rejects the token (exit 2, nothing on
    # stdout), and the message says where it came from
    def rejected(argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        return captured.err

    path = tmp_path / "slot.dmwc"
    for template in FILE_SLOTS:
        parse(template.format("2"))
        at = template.index("{}")
        line, column = template.count("\n", 0, at) + 1, at - template.rfind("\n", 0, at)
        path.write_text(template.format(token), encoding="utf-8")
        err = rejected(["solve", str(path)])
        assert err == f"error: line {line}, column {column}: expected an integer, got {token!r}\n"

    two = tmp_path / "two.dmwc"
    two.write_text(serialize(from_instance(two_cycle(2))))
    seps = ["enumerate-seps", str(two)]
    for argv, option in (
        (["solve", str(two), "--budget", token], "--budget"),
        (seps + ["--source", "2", "--target", "0", "--budget", token], "--budget"),
        *((["gen", option, token], option) for option in ("--seed", "--n", "--k", "--p")),
    ):
        err = rejected(argv)
        assert f"argument {option}: {token!r} is not an integer\n" in err
        assert "_integer" not in err  # argparse names a type function that raises ValueError

    for argv, option in (
        (seps + ["--source", token, "--target", "0", "--budget", "1"], "--source"),
        (seps + ["--source", "2", "--target", f"0,{token}", "--budget", "1"], "--target"),
        (["shadow", str(two), "--set", f"2,{token}"], "--set"),
    ):
        err = rejected(argv)
        assert err.startswith("usage: dmwc ")
        assert err.endswith(f"error: argument {option}: {token!r} is not an integer id\n")

    sol = tmp_path / "answer.txt"
    for text in (f"SOLUTION 2 2 {token}\n", f"3 {token}\n", f"SOLUTION {token} 2 3\n"):
        sol.write_text(text, encoding="utf-8")
        err = rejected(["verify", str(two), "--solution", str(sol)])
        assert err == f"error: solution file {sol}: {token!r} is not an integer id\n"

    for name, key in (
        (f"remark2:r={token}", "r"),
        (f"remark2:r=2, k = {token} ", "k"),
        (f"twocycle:p={token}", "p"),
    ):
        err = rejected(["gen", "--fixture", name])
        assert err == f"error: fixture parameter {key!r}: {token!r} is not an integer\n"
