import importlib.util
from pathlib import Path

import numpy as np

import submodqp as sq
from submodqp import pathtrace, sfm

_spec = importlib.util.spec_from_file_location(
    "answer_digest", Path(__file__).resolve().parent.parent / "tools" / "answer_digest.py"
)
answer_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(answer_digest)


def test_digest_repeats_and_sees_one_ulp_in_one_chain(monkeypatch):
    inst, _ = sq.generate("chain", 4, mode="robust", outlier_fraction=0.25, seed=3)
    cases = [("robust chain", sq.compile_instance(inst), 1e-9)]
    chain, eval_many = sfm.IndicatorOracle.chain, sfm.IndicatorOracle.eval_many
    first, answers = answer_digest.digest(cases)
    # MNP and exhaustive; only MNP asks for chains
    assert [(a["engine"], a["chains"]) for a in answers] == [("mnp", 8), ("exhaustive", 0)]
    assert sfm.IndicatorOracle.chain is chain  # the recorders are gone
    assert sfm.IndicatorOracle.eval_many is eval_many
    assert answer_digest.digest(cases) == (first, answers)

    def drifting(self, order):  # the first chain's last value, one ulp up
        values = chain(self, order)
        if self.stats.chains == 1:
            values[-1] = np.nextafter(values[-1], np.inf)
        return values

    monkeypatch.setattr(sfm.IndicatorOracle, "chain", drifting)
    moved, drifted = answer_digest.digest(cases)
    assert moved != first
    # compared by value, one ulp passes
    lines, ok = answer_digest.compare(answers, drifted, judge=None)
    assert ok and lines[-1] == "ok"


def test_digest_sees_one_ulp_in_one_breakpoint_point(monkeypatch):
    inst, _ = sq.generate("chain", 4, mode="robust", outlier_fraction=0.25, seed=3)
    cases = [("robust chain", sq.compile_instance(inst), 1e-9)]
    first, answers = answer_digest.digest(cases)
    chain_general = pathtrace.chain_general

    def drifting(*args, **kwargs):  # the last breakpoint point, one ulp up in one entry
        chain = chain_general(*args, **kwargs)
        if chain.breakpoint_points:
            point = chain.breakpoint_points[-1]
            point[0] = np.nextafter(point[0], np.inf)
        return chain

    # MNP reads no breakpoint point, so its answers and chains stay the same
    monkeypatch.setattr(pathtrace, "chain_general", drifting)
    moved, same = answer_digest.digest(cases)
    assert moved != first and same == answers


def test_digest_sees_one_ulp_in_one_stacked_value(monkeypatch):
    inst, _ = sq.generate("chain", 4, mode="robust", outlier_fraction=0.25, seed=3)
    problem = sq.compile_instance(inst)
    cases = [("robust chain", problem, 1e-9)]
    first, answers = answer_digest.digest(cases)
    before = sq.solve_full(problem, engine="exhaustive")
    eval_many = sfm.IndicatorOracle.eval_many

    def drifting(self, zbins):  # the largest value, never the winner, one ulp up
        values = eval_many(self, zbins)
        top = values.argmax()
        values[top] = np.nextafter(values[top], np.inf)
        return values

    # enumeration keeps only its winner's z, so its answer stays the same
    monkeypatch.setattr(sfm.IndicatorOracle, "eval_many", drifting)
    after = sq.solve_full(problem, engine="exhaustive")
    for field in ("z", "x", "value"):
        assert np.array_equal(getattr(after, field), getattr(before, field))
    moved, same = answer_digest.digest(cases)
    assert moved != first and same == answers


def test_chains_are_counted_per_case_and_per_workload():
    cases = []
    for label, seed in (("tiny/3", 3), ("tiny/4", 4), ("other/0", 0)):
        inst, _ = sq.generate("chain", 4, mode="robust", outlier_fraction=0.25, seed=seed)
        cases.append((label, sq.compile_instance(inst), 1e-9))
    _, answers = answer_digest.digest(cases)
    assert [(a["label"], a["engine"]) for a in answers] == [
        (label, engine) for label, _, _ in cases for engine in ("mnp", "exhaustive")
    ]
    chains = {a["label"]: a["chains"] for a in answers if a["engine"] == "mnp"}
    for label, problem, tol in cases:  # each count is MNP's own
        assert chains[label] == sq.solve_full(problem, tol=tol).stats.chains > 0
    per = answer_digest.chains_per_workload(answers, ["tiny", "other", "none"])
    assert per == {"tiny": chains["tiny/3"] + chains["tiny/4"], "other": chains["other/0"], "none": 0}


def _answer(label, value, z=(1, 0), converged=True, chains=3):
    return {"label": label, "engine": "mnp", "z": list(z), "value": value,
            "certificate": 0.0, "converged": converged, "chains": chains}


def test_compare_passes_ulps_and_reports_moved_chains():
    old = [_answer("a/0", -2.5), _answer("b/0", 4.0)]
    new = [_answer("a/0", np.nextafter(-2.5, 0.0)), _answer("b/0", 4.0, chains=5)]
    lines, ok = answer_digest.compare(old, new, judge=None)
    assert ok
    assert lines == [
        "compared 2 solves",
        f"largest relative value difference: {2**-51 / 3.5:.3g} (a/0 mnp)",
        "changed z: none",
        "converged flips: none",
        "chains per family: a 3 -> 3, b 3 -> 5",
        "chains moved: b/0 mnp 3 -> 5",
        "ok",
    ]


def test_compare_fails_a_planted_value_change_of_1e_8():
    old = [_answer("a/0", -2.5), _answer("b/0", 4.0)]
    new = [_answer("a/0", -2.5), _answer("b/0", 4.0 * (1.0 + 1e-8))]
    lines, ok = answer_digest.compare(old, new, judge=None)
    assert not ok and lines[-1] == "FAIL"
    assert "largest relative value difference: 8e-09 (b/0 mnp)" in lines


def test_compare_judges_a_changed_z():
    old = [_answer("a/0", -2.5, z=(1, 0))]
    asked = []

    def judge(label):
        asked.append(label)
        return "brute_force", -2.5

    tie = [_answer("a/0", -2.5, z=(0, 1))]  # another minimizer: passes
    lines, ok = answer_digest.compare(old, tie, judge)
    assert ok and asked == ["a/0"]
    assert "changed z: a/0 mnp value -2.5 -> -2.5; brute_force -2.5, not worse" in lines
    # within the value tolerance of the parent, but above the judge's optimum
    worse = [_answer("a/0", -2.5 + 5e-9, z=(0, 1))]
    old = [_answer("a/0", -2.5 + 4e-9)]
    lines, ok = answer_digest.compare(old, worse, judge)
    assert not ok and any(line.endswith("brute_force -2.5, worse") for line in lines)
    # no judge: only the value check applies
    lines, ok = answer_digest.compare(old, worse, lambda label: None)
    assert ok and any(line.endswith("; no judge") for line in lines)


def test_compare_fails_a_lost_convergence_and_missing_solves():
    old = [_answer("a/0", 1.0), _answer("b/0", 1.0, converged=False)]
    regained = [_answer("a/0", 1.0), _answer("b/0", 1.0)]
    lines, ok = answer_digest.compare(old, regained, judge=None)
    assert ok and "converged flip: b/0 mnp False -> True" in lines
    lost = [_answer("a/0", 1.0, converged=False), _answer("b/0", 1.0, converged=False)]
    lines, ok = answer_digest.compare(old, lost, judge=None)
    assert not ok and "converged flip: a/0 mnp True -> False" in lines
    lines, ok = answer_digest.compare(old, old[:1], judge=None)
    assert not ok and lines[0] == "solves differ: 1 only before, 0 only after"
