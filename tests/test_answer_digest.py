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
    first, solves, chains = answer_digest.digest(cases)
    assert (solves, chains) == (2, {"robust chain": 8})  # MNP and exhaustive; MNP's chains
    assert sfm.IndicatorOracle.chain is chain  # the recorders are gone
    assert sfm.IndicatorOracle.eval_many is eval_many
    assert answer_digest.digest(cases) == (first, solves, chains)

    def drifting(self, order):  # the first chain's last value, one ulp up
        values = chain(self, order)
        if self.stats.chains == 1:
            values[-1] = np.nextafter(values[-1], np.inf)
        return values

    monkeypatch.setattr(sfm.IndicatorOracle, "chain", drifting)
    assert answer_digest.digest(cases)[0] != first


def test_digest_sees_one_ulp_in_one_breakpoint_point(monkeypatch):
    inst, _ = sq.generate("chain", 4, mode="robust", outlier_fraction=0.25, seed=3)
    cases = [("robust chain", sq.compile_instance(inst), 1e-9)]
    first, solves, chains = answer_digest.digest(cases)
    chain_general = pathtrace.chain_general

    def drifting(*args, **kwargs):  # the last breakpoint point, one ulp up in one entry
        chain = chain_general(*args, **kwargs)
        if chain.breakpoint_points:
            point = chain.breakpoint_points[-1]
            point[0] = np.nextafter(point[0], np.inf)
        return chain

    # MNP reads no breakpoint point, so its answers and chains stay the same
    monkeypatch.setattr(pathtrace, "chain_general", drifting)
    moved, *counts = answer_digest.digest(cases)
    assert moved != first and counts == [solves, chains]


def test_digest_sees_one_ulp_in_one_stacked_value(monkeypatch):
    inst, _ = sq.generate("chain", 4, mode="robust", outlier_fraction=0.25, seed=3)
    problem = sq.compile_instance(inst)
    cases = [("robust chain", problem, 1e-9)]
    first, *counts = answer_digest.digest(cases)
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
    moved, *moved_counts = answer_digest.digest(cases)
    assert moved != first and moved_counts == counts


def test_chains_are_counted_per_case_and_per_workload():
    cases = []
    for label, seed in (("tiny/3", 3), ("tiny/4", 4), ("other/0", 0)):
        inst, _ = sq.generate("chain", 4, mode="robust", outlier_fraction=0.25, seed=seed)
        cases.append((label, sq.compile_instance(inst), 1e-9))
    _, solves, chains = answer_digest.digest(cases)
    assert solves == 6 and list(chains) == ["tiny/3", "tiny/4", "other/0"]
    for label, problem, tol in cases:  # each count is MNP's own
        assert chains[label] == sq.solve_full(problem, tol=tol).stats.chains > 0
    per = answer_digest.chains_per_workload(chains, ["tiny", "other", "none"])
    assert per == {"tiny": chains["tiny/3"] + chains["tiny/4"], "other": chains["other/0"], "none": 0}
