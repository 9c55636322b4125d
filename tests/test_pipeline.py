"""The stage table and the cross-kernel distance routine of the pipeline."""

import ast
import importlib
import re
from pathlib import Path

import numpy as np
from scipy.spatial.distance import cdist as scipy_cdist

from expertmap import pipeline

ROOT = Path(__file__).resolve().parents[1]


def test_each_stage_has_a_step_and_each_step_a_stage():
    steps = {name[len("run_"):].replace("_", " ") for name in vars(pipeline)
             if name.startswith("run_")}
    assert steps == set(pipeline.STAGES)


def test_an_artifact_names_the_first_stage_that_writes_it():
    assert pipeline.PRODUCER["labels.csv"] == "pseudopoints import"
    assert pipeline.PRODUCER["label_function.csv"] == "pseudopoints import"
    assert pipeline.PRODUCER["ensemble.json"] == "train"
    assert set(pipeline.PRODUCER) == {name for names in pipeline.STAGES.values()
                                      for name in names}


def readme_stage_table() -> dict[str, tuple[str, ...]]:
    """stage -> the artifacts in the 'writes' column of README's stage table."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Stage chain", 1)[1].split("\n## ", 1)[0]
    table = {}
    for line in section.splitlines():
        if line.startswith("| `"):
            stage, _, writes = (cell.strip() for cell in line.strip("|").split("|"))
            table[stage.strip("`")] = tuple(re.findall(r"`([^`]+)`", writes))
    return table


def test_the_readme_lists_each_stage_s_artifacts():
    assert readme_stage_table() == pipeline.STAGES


def benchmark_constant(script: str, name: str):
    """The literal value of the module-level ``name`` in perfbench/``script``."""
    tree = ast.parse((ROOT / "perfbench" / script).read_text(encoding="utf-8"))
    (value,) = (ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == [name])
    return value


def test_the_benchmark_checks_each_stage_s_artifacts():
    artifacts = benchmark_constant("run.py", "ARTIFACTS")
    # the benchmark names a stage with underscores for spaces
    artifacts = {stage.replace("_", " "): names for stage, names in artifacts.items()}
    assert artifacts == {stage: pipeline.STAGES[stage] for stage in artifacts}


def test_each_function_the_benchmark_wraps_exists():
    # chain.py looks each one up by name before the first stage runs, so a
    # missing one fails every benchmark run
    wrapped = [(f"expertmap.{module}", fn)
               for module, fns in benchmark_constant("chain.py", "LAYERS").items()
               for fn in fns]
    wrapped += [("expertmap.pipeline", fn)
                for fn in benchmark_constant("chain.py", "STAGE_FUNCTIONS") + ("cdist",)]
    missing = [f"{module}.{fn}" for module, fn in wrapped
               if not callable(getattr(importlib.import_module(module), fn, None))]
    missing += [f"pipeline.Workspace.{method}" for method in ("require", "record")
                if not callable(getattr(pipeline.Workspace, method, None))]
    assert missing == []


def test_cdist_matches_scipy():
    rng = np.random.default_rng(40)
    n = 2 * pipeline.EXTEND_BLOCK + 37
    a = rng.normal(size=(n, 30)) * 10.0 ** rng.uniform(-2, 2, size=(n, 1))
    b = rng.normal(size=(23, 30))
    got = pipeline.cdist(a, b)
    want = scipy_cdist(a, b)
    assert got.shape == (n, 23)
    assert np.max(np.abs(got ** 2 - want ** 2) / want ** 2) <= 1e-12


def test_cdist_of_identical_rows_is_finite_and_non_negative():
    rng = np.random.default_rng(41)
    rows = rng.uniform(0.0, 1.0, size=(7, 1121)) * 1e3
    a = np.repeat(rows, 3, axis=0)
    got = pipeline.cdist(a, rows)
    assert np.all(np.isfinite(got)) and np.all(got >= 0.0)
    # a row's distance to itself is rounding only, far below any other
    own = got[np.arange(21), np.arange(21) // 3]
    assert np.max(own) <= 1e-6 * np.min(scipy_cdist(rows, rows)[~np.eye(7, dtype=bool)])


def test_cdist_single_rows():
    a = np.array([[3.0, 4.0]])
    assert pipeline.cdist(a, np.zeros((1, 2))).tolist() == [[5.0]]
