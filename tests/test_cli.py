import gc
import os
import warnings

import pytest

from dmwc.cli import main
from dmwc.fileformat import MAX_VERTICES, from_instance, serialize
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
    # with the no-finite-cut check blinded, the flow through undeletable 1
    # exceeds its bound: a solver bug, which must not read as "no solution"
    path = tmp_path / "path.dmwc"
    path.write_text("dmwc vertex\nn 3\np 1\nt 0\nt 2\ninf 1\ne 0 1\ne 1 2\n")
    monkeypatch.setattr("dmwc.graph._reach", lambda *args: frozenset())
    args = ["enumerate-seps", str(path), "--source", "0", "--target", "2", "--budget", "1"]
    assert main(args) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "max-flow exceeded" in captured.err

    def broken(*args):
        raise RuntimeError("cut extraction disagrees with flow value")

    monkeypatch.setattr("dmwc.cli.shadow", broken)
    assert main(["shadow", str(path), "--set", ""]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "cut extraction" in captured.err

    monkeypatch.setattr("dmwc.cli.verify_solution", broken)
    sol = tmp_path / "cut.txt"
    sol.write_text("SOLUTION 1 1\n")
    assert main(["verify", str(path), "--solution", str(sol)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "cut extraction" in captured.err


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
    sol.write_text("2 3\n")  # a bare id list stays valid
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


def test_env_seed_is_gen_default_with_flag_override(two_cycle_file, capsys, monkeypatch):
    assert main(["gen", "--seed", "5", "--n", "6"]) == 0
    seed5 = capsys.readouterr().out
    assert main(["gen", "--seed", "6", "--n", "6"]) == 0
    seed6 = capsys.readouterr().out
    assert seed5 != seed6
    monkeypatch.setenv("DMWC_SEED", "5")
    assert main(["gen", "--n", "6"]) == 0
    assert capsys.readouterr().out == seed5
    assert main(["gen", "--seed", "6", "--n", "6"]) == 0
    assert capsys.readouterr().out == seed6
    monkeypatch.setenv("DMWC_SEED", "oops")
    assert main(["gen", "--n", "6"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")
    # solve has no seed, so it does not read the variable
    assert main(["solve", two_cycle_file]) == 0
    assert capsys.readouterr().out.strip() == "SOLUTION 2 2 3"


def test_threads_flag_is_unknown(two_cycle_file, capsys):
    # neither a thread count nor the sampling mode and its seed are options
    for flag in (["--threads", "2"], ["--mode", "randomized"], ["--seed", "1"]):
        assert main(["solve", two_cycle_file, *flag]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {' '.join(flag)}" in captured.err
