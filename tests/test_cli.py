import json
import math
import subprocess
import sys

import numpy as np
import pytest

import submodqp as sq
from submodqp import boxqp, cli, lattice, model, sfm


def _run(argv):
    return cli.main(argv)


def test_generate_writes_instance_and_truth(tmp_path):
    out = tmp_path / "inst.json"
    code = _run([
        "generate", "--topology", "chain", "--dims", "8", "--sparsity", "0.5",
        "--outlier-fraction", "0.25", "--seed", "3", "--mode", "robust",
        "--output", str(out),
    ])
    assert code == cli.EXIT_OK
    assert out.exists()
    truth = json.loads((tmp_path / "inst_truth.json").read_text())
    assert len(truth["outliers"]) == 2
    inst = sq.load_instance(out)
    assert inst.mode == "robust" and inst.n == 8


@pytest.mark.parametrize("noise_sd", ["-1", "nan", "inf"])
def test_generate_rejects_a_negative_or_non_finite_noise_sd(noise_sd, tmp_path, capsys):
    out = tmp_path / "g.json"
    code = _run(["generate", "--dims", "5", "--noise-sd", noise_sd, "--output", str(out)])
    assert code == cli.EXIT_INPUT
    assert "noise_sd must be finite and nonnegative" in capsys.readouterr().err
    assert not out.exists()


def test_solve_round_trip_is_deterministic(tmp_path, capsys):
    out = tmp_path / "inst.json"
    _run(["generate", "--dims", "6", "--seed", "1", "--cost", "0.8", "--output", str(out)])
    sol1 = tmp_path / "sol1.json"
    sol2 = tmp_path / "sol2.json"
    assert _run(["solve", str(out), "--engine", "mnp", "--output", str(sol1)]) == cli.EXIT_OK
    assert _run(["solve", str(out), "--engine", "mnp", "--output", str(sol2)]) == cli.EXIT_OK
    d1 = json.loads(sol1.read_text())
    d2 = json.loads(sol2.read_text())
    d1.pop("wall_time_ms"), d2.pop("wall_time_ms")
    assert d1 == d2
    # indices in the output refer to instance vertices
    assert all(0 <= i < 6 for i in (d1["discarded"] or []))
    assert len(d1["z"]) == 6


def test_solve_engines_agree(tmp_path):
    out = tmp_path / "inst.json"
    _run(["generate", "--dims", "5", "--seed", "7", "--cost", "0.5", "--output", str(out)])
    s1, s2 = tmp_path / "a.json", tmp_path / "b.json"
    _run(["solve", str(out), "--engine", "exhaustive", "--output", str(s1)])
    _run(["solve", str(out), "--engine", "mnp", "--output", str(s2)])
    v1 = json.loads(s1.read_text())["value"]
    v2 = json.loads(s2.read_text())["value"]
    assert v1 == pytest.approx(v2, abs=1e-6)


def test_solve_known_instance(tmp_path, capsys):
    # instance compiling to Q=[[2,-1],[-1,2]], a=(1,0), k0=0.5 with c=0.1:
    # the optimum keeps vertex 0 only, at value k0 - 0.15
    inst = sq.ProblemInstance(
        sq.chain_graph(2, weight=0.5), a=[1, 0], node_weights=[0.5, 0.5],
        c=[0.1, 0.1], l=[0, 0], u=[10, 10],
    )
    path = tmp_path / "inst.json"
    sq.save_instance(inst, path)
    out = tmp_path / "sol.json"
    assert _run(["solve", str(path), "--engine", "exhaustive", "--output", str(out)]) == cli.EXIT_OK
    d = json.loads(out.read_text())
    assert d["z"] == [1, 0]
    assert d["value"] == pytest.approx(0.5 - 0.15, abs=1e-9)


def test_eval_all_off_prints_constant_term(tmp_path, capsys):
    inst = sq.ProblemInstance(
        sq.chain_graph(2, weight=0.5), a=[1, 0], node_weights=[1, 1],
        c=[0, 0], l=[0, 0], u=[10, 10],
    )
    path = tmp_path / "inst.json"
    sq.save_instance(inst, path)
    assert _run(["eval", str(path), "--z", "0,0"]) == cli.EXIT_OK
    outp = capsys.readouterr().out
    assert "v(z) = 1" in outp  # k0 = sum nw_i a_i^2 = 1


def test_eval_reproduces_the_value_of_a_robust_solve(tmp_path):
    # the discarded observations' slacks are free in both commands
    inst, truth = model.generate("chain", (6,), mode="robust", outlier_fraction=0.34, seed=4)
    path = tmp_path / "inst.json"
    sq.save_instance(inst, path)
    sol, ev = tmp_path / "sol.json", tmp_path / "eval.json"
    assert _run(["solve", str(path), "--output", str(sol)]) == cli.EXIT_OK
    solved = json.loads(sol.read_text())
    assert solved["discarded"] == truth["outliers"] and solved["discarded"]
    assert solved["stats"]["chains"] > 0
    z = ",".join(str(v) for v in solved["z"])
    assert _run(["eval", str(path), "--z", z, "--output", str(ev)]) == cli.EXIT_OK
    evaluated = json.loads(ev.read_text())
    cost = float(inst.c[solved["discarded"]].sum())
    assert evaluated["value"] + cost == pytest.approx(solved["value"], rel=1e-12)
    assert np.allclose(evaluated["x"], solved["x"], rtol=0.0, atol=1e-12)


def test_eval_rejects_bad_z(tmp_path, capsys):
    inst, _ = model.generate("chain", (3,), seed=0)
    path = tmp_path / "inst.json"
    sq.save_instance(inst, path)
    assert _run(["eval", str(path), "--z", "0,1"]) == cli.EXIT_INPUT
    assert _run(["eval", str(path), "--z", "0,2,1"]) == cli.EXIT_INPUT
    assert _run(["eval", str(path), "--z", "1,x,0"]) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert "expected binary vector of length 3" in err and "0 or 1" in err and "bad z list" in err


def test_eval_rejects_a_closed_robust_signal(tmp_path, capsys):
    # a robust signal carries no indicator, so its z is 1
    inst, _ = model.generate("chain", (3,), mode="robust", seed=0)
    path = tmp_path / "inst.json"
    sq.save_instance(inst, path)
    assert _run(["eval", str(path), "--z", "1,1,1,0,1,0"]) == cli.EXIT_OK
    assert _run(["eval", str(path), "--z", "0,1,1,0,1,0"]) == cli.EXIT_INPUT
    assert "no indicator" in capsys.readouterr().err


def test_ridge_is_not_an_option(tmp_path, capsys):
    # robust mode compiles with the fixed model.RIDGE
    inst, _ = model.generate("chain", (3,), mode="robust", seed=0)
    path = tmp_path / "inst.json"
    sq.save_instance(inst, path)
    for argv in (["solve"], ["eval", "--z", "0,0,0,0,0,0"], ["trace"]):
        assert _run([*argv, str(path), "--ridge", "1e-8"]) == cli.EXIT_INPUT
    assert "--ridge" in capsys.readouterr().err


def test_trace_writes_value_chain(tmp_path):
    inst, _ = model.generate("chain", (4,), seed=2)
    path = tmp_path / "inst.json"
    sq.save_instance(inst, path)
    out = tmp_path / "chain.json"
    assert _run(["trace", str(path), "--output", str(out)]) == cli.EXIT_OK
    d = json.loads(out.read_text())
    assert set(d) == {"kind", "order", "values", "breakpoints"}
    assert len(d["values"]) == len(d["order"]) + 1


def test_trace_with_a_prefix_order_traces_the_prefix(tmp_path, capsys):
    inst, _ = model.generate("chain", (4,), seed=2)
    path = tmp_path / "inst.json"
    sq.save_instance(inst, path)
    full, prefix = tmp_path / "full.json", tmp_path / "prefix.json"
    assert _run(["trace", str(path), "--order", "3,1,0,2", "--output", str(full)]) == cli.EXIT_OK
    capsys.readouterr()
    assert _run(["trace", str(path), "--order", "3,1", "--output", str(prefix)]) == cli.EXIT_OK
    d, f = json.loads(prefix.read_text()), json.loads(full.read_text())
    assert d["order"] == [3, 1]
    assert d["values"] == f["values"][:3]
    assert f"v(last)={d['values'][-1]:.6f}" in capsys.readouterr().out
    assert _run(["trace", str(path), "--order", "3,3"]) == cli.EXIT_INPUT


def test_trace_robust_traces_the_slack_coordinates(tmp_path, capsys):
    # the coordinates solve uses: the two split bits of each straddling slack
    inst, _ = model.generate("chain", (3,), mode="robust", seed=0)
    path = tmp_path / "inst.json"
    sq.save_instance(inst, path)
    out = tmp_path / "chain.json"
    assert _run(["trace", str(path), "--output", str(out)]) == cli.EXIT_OK
    assert json.loads(out.read_text())["order"] == list(range(6))
    assert "stages=6 " in capsys.readouterr().out


def test_trace_traces_the_coordinates_solve_minimizes_over(tmp_path, capsys, monkeypatch):
    # vertex 0 costs nothing and 0 lies in its bounds, so solve keeps it open
    # with no coordinate; vertex 1 straddles 0 (two coordinates), vertex 2 has one
    inst = sq.ProblemInstance(
        sq.chain_graph(3), a=[1.0, -2.0, 0.5], node_weights=[1, 1, 1],
        c=[0.0, 1.0, 1.0], l=[-3.0, -3.0, 0.0], u=[3.0, 3.0, 3.0],
    )
    path = tmp_path / "inst.json"
    sq.save_instance(inst, path)
    seen = []
    mnp = sfm.minimize_mnp
    monkeypatch.setattr(sfm, "minimize_mnp", lambda orc, tol: seen.append(orc.m) or mnp(orc, tol=tol))
    assert _run(["solve", str(path)]) == cli.EXIT_OK
    out = tmp_path / "chain.json"
    assert _run(["trace", str(path), "--output", str(out)]) == cli.EXIT_OK
    assert seen == [3] and "stages=3 " in capsys.readouterr().out
    d = json.loads(out.read_text())
    assert d["order"] == [0, 1, 2]
    quad = model.compile_instance(inst).quad
    # vertex 0 keeps [l, u] throughout; vertex 1 moves from [l, 0] to [0, u]
    # and vertex 2 from {0} to [l, u]
    first = boxqp.solve(quad, [-3.0, -3.0, 0.0], [3.0, 0.0, 0.0]).value
    last = boxqp.solve(quad, [-3.0, 0.0, 0.0], [3.0, 3.0, 3.0]).value
    assert d["values"][0] == pytest.approx(first, abs=1e-9)
    assert d["values"][-1] == pytest.approx(last, abs=1e-9)


def test_trace_infinite_bounds_matches_naive_chain(tmp_path):
    inst = sq.ProblemInstance(
        sq.chain_graph(3, weight=0.5), a=[1.0, -2.0, 0.5], node_weights=[1, 1, 1],
        c=[0.1, 0.1, 0.1], l=[-np.inf] * 3, u=[np.inf] * 3,
    )
    path = tmp_path / "inst.json"
    sq.save_instance(inst, path)
    out = tmp_path / "chain.json"
    assert _run(["trace", str(path), "--output", str(out)]) == cli.EXIT_OK
    d = json.loads(out.read_text())
    problem = model.compile_instance(inst)
    smap, _ = lattice.split(problem)
    boxes = lattice.bounds_for_binary(smap, sfm.prefix_sets(d["order"], smap.binary_dim))
    naive = boxqp.solve_many(problem.quad, *boxes).value
    assert d["kind"] == "general"
    assert np.max(np.abs(np.array(d["values"]) - naive)) <= 1e-8


def test_malformed_json_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert _run(["solve", str(bad)]) == cli.EXIT_INPUT
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("n", "abc"), ("edges", [[0, 1]]), ("a", "xyz"), ("l", [None]), ("c", [math.inf, 1.0, 1.0]),
    # no truncation: 3.9 vertices is not 3, nor the edge (0.7, 1.9) the edge (0, 1)
    ("n", 3.9), ("n", True), ("edges", [[0.7, 1.9, 1.0]]), ("edges", [[False, 1, 1.0]]),
    # nor JSON's true and false the numbers 1 and 0
    ("node_weights", [1.0, 1.0, True]), ("a", [False, 0.5, 0.5]), ("edges", [[0, 1, True]]),
    # nor a string that spells a number
    ("a", ["0.09", 0.5, 0.5]), ("c", ["1", 1.0, 1.0]), ("edges", [[0, 1, "1.0"], [1, 2, 1.0]]),
    # nor an integer too large for a float
    ("a", [10**400, 0.5, 0.5]),
])
def test_malformed_json_values_are_input_errors(tmp_path, capsys, key, value):
    inst, _ = model.generate("chain", (3,), seed=0)
    d = model.instance_to_json_dict(inst)
    d[key] = value
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(d))
    assert _run(["solve", str(path)]) == cli.EXIT_INPUT
    assert "input error:" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag, text", [
    ("generate", "--dims", "2,,3"), ("generate", "--dims", "2,3,"),
    ("eval", "--z", "1,,0,1"), ("trace", "--order", "2,,0"), ("trace", "--order", ",2"),
    ("trace", "--order", ""),
])
def test_an_empty_list_entry_is_an_input_error(command, flag, text, tmp_path, capsys):
    # dropping the empty entry would leave a valid list: dims 2,3, z 1,0,1, order 2,0
    inst, _ = model.generate("chain", (3,), seed=0)
    path = tmp_path / "inst.json"
    sq.save_instance(inst, path)
    where = [str(path)] if command != "generate" else ["--topology", "grid2d", "--output", str(path)]
    assert _run([command, *where, flag, text]) == cli.EXIT_INPUT
    assert f"bad {flag[2:]} list {text!r}" in capsys.readouterr().err


def test_solve_exits_2_when_the_gap_does_not_certify(tmp_path, capsys, monkeypatch):
    path = tmp_path / "inst.json"
    _run(["generate", "--dims", "6", "--seed", "1", "--cost", "0.8", "--output", str(path)])
    monkeypatch.setattr(sfm, "_CYCLES_PER_COORDINATE", 0)  # no major cycle
    monkeypatch.setattr(sfm, "_CYCLES_SPARE", 0)
    out = tmp_path / "sol.json"
    assert _run(["solve", str(path), "--output", str(out)]) == cli.EXIT_NUMERICAL
    d = json.loads(out.read_text())
    assert d["converged"] is False
    assert d["certificate"] > sfm.gap_tolerance(d["value"], 1e-9)
    assert "result not certified: duality gap" in capsys.readouterr().err


def test_unknown_key_is_named(tmp_path, capsys):
    inst, _ = model.generate("chain", (3,), seed=0)
    d = model.instance_to_json_dict(inst)
    d["mystery"] = 1
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(d))
    assert _run(["solve", str(path)]) == cli.EXIT_INPUT
    assert "mystery" in capsys.readouterr().err


def test_bench_single_size(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    assert _run(["bench", "--sizes", "12", "--reps", "1", "--output", str(out)]) == cli.EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,t_chain_ms,t_naive_ms,breakpoints"
    assert len(lines) == 2
    assert "ratio" not in capsys.readouterr().out


def test_bench_two_sizes_prints_the_chain_ratio(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    assert _run(["bench", "--sizes", "8,16", "--reps", "1", "--output", str(out)]) == cli.EXIT_OK
    assert len(out.read_text().splitlines()) == 3
    assert "bench: n 8->16 chain ratio " in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["generate", "--dims", "3", "--seed=-3"],
    ["verify", "--trials", "1", "--n", "3", "--seed=-1"],
    ["bench", "--sizes", "8", "--reps", "1", "--seed=-2"],
])
def test_a_negative_seed_is_an_input_error(argv, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "submodqp.cli", *argv, "--output", str(tmp_path / "out")],
        capture_output=True, text=True,
    )
    assert proc.returncode == cli.EXIT_INPUT
    assert "input error:" in proc.stderr and "Traceback" not in proc.stderr


def test_a_numerical_failure_exits_2(tmp_path, capsys, monkeypatch):
    path = tmp_path / "inst.json"
    model.save_instance(model.generate("chain", (3,), seed=0)[0], path)

    def failing(*args, **kwargs):
        raise sq.NumericalError("planted failure")

    monkeypatch.setattr(sfm, "solve_full", failing)
    assert _run(["solve", str(path)]) == cli.EXIT_NUMERICAL
    assert "numerical failure: planted failure" in capsys.readouterr().err


def test_bench_rejects_tiny_sizes():
    assert _run(["bench", "--sizes", "1", "--reps", "1"]) == cli.EXIT_INPUT


def test_verify_ok(tmp_path):
    out = tmp_path / "report.json"
    code = _run(["verify", "--trials", "2", "--n", "4", "--seed", "0", "--output", str(out)])
    assert code == cli.EXIT_OK
    assert json.loads(out.read_text())["ok"] is True


def test_verify_records_a_check_that_raises_as_a_witness(tmp_path, monkeypatch):
    def broken(problem, rng):
        raise sq.NumericalError("nonpositive Schur complement on parametric coordinate")

    monkeypatch.setitem(sq.oracle.CHECKS, "monotone_path", broken)
    out = tmp_path / "report.json"
    code = _run(["verify", "--trials", "1", "--n", "4", "--seed", "0", "--output", str(out)])
    assert code == cli.EXIT_VERIFY
    checks = json.loads(out.read_text())["checks"]
    (witness,) = checks["monotone_path"]["failures"]
    assert witness["detail"]["error"].startswith("NumericalError: nonpositive Schur")
    assert witness["check"] == "monotone_path" and "instance" in witness
    assert all(c["passes"] + c["skipped"] == 1 for name, c in checks.items() if name != "monotone_path")


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "submodqp.cli", "bench", "--sizes", "8", "--reps", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("n,t_chain_ms")


def test_solve_of_a_missing_file_is_input_error(tmp_path, capsys):
    assert _run(["solve", str(tmp_path / "missing.json")]) == cli.EXIT_INPUT
    assert "input error:" in capsys.readouterr().err


def test_solve_of_a_directory_is_input_error(tmp_path, capsys):
    assert _run(["solve", str(tmp_path)]) == cli.EXIT_INPUT
    assert "input error:" in capsys.readouterr().err


def test_solve_of_a_file_that_is_not_utf8_is_input_error(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_bytes(b'{"n": "\xff\xfe"}')
    assert _run(["solve", str(path)]) == cli.EXIT_INPUT
    assert "is not UTF-8 text" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["generate", "solve", "eval", "trace", "verify", "bench"])
def test_output_in_a_missing_directory_is_input_error(tmp_path, capsys, command):
    inst = tmp_path / "inst.json"
    model.save_instance(model.generate("chain", (3,), seed=0)[0], inst)
    argv = {
        "generate": ["generate", "--dims", "3"],
        "solve": ["solve", str(inst)],
        "eval": ["eval", str(inst), "--z", "1,0,1"],
        "trace": ["trace", str(inst)],
        "verify": ["verify", "--trials", "1", "--n", "3"],
        "bench": ["bench", "--sizes", "8", "--reps", "1"],
    }[command]
    out = tmp_path / "missing" / "out.json"
    assert _run(argv + ["--output", str(out)]) == cli.EXIT_INPUT
    assert "input error:" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "inf", "-1e-9"])
def test_solve_rejects_a_meaningless_tol(tmp_path, capsys, tol):
    path = tmp_path / "inst.json"
    model.save_instance(model.generate("chain", (3,), seed=0)[0], path)
    assert _run(["solve", str(path), f"--tol={tol}"]) == cli.EXIT_INPUT
    assert "input error: tol must be finite and nonnegative" in capsys.readouterr().err
