"""The demos run to completion in-process, where a RuntimeWarning is an error."""

import importlib.util
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["path_tracing_demo", "robust_outlier_demo", "sparse_signal_demo"])
def test_demo_runs_without_warnings(name, capsys):
    spec = importlib.util.spec_from_file_location(name, DEMOS / f"{name}.py")
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    demo.main()
    assert capsys.readouterr().out.strip()
