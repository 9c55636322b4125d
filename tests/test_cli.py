"""End to end: every CLI subcommand on a small synthetic config."""

import csv
import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import expertmap
from expertmap import cli, expert, pipeline
from expertmap.cogeometry import PartitionTree
from expertmap.dataset import ReferenceSet, load_matrix
from expertmap.errors import BoundViolation, ValidationError
from expertmap.expert import extract_pseudopoints

CONFIG = {"synth": {"n_points": 150},
          "net": {"k": 5, "epochs": 40, "pretrain_epochs": 10},
          "pseudopoints": {"level": 4}}

STAGES = (["synth"], ["preprocess"], ["organize"], ["pseudopoints", "export"],
          ["pseudopoints", "auto"], ["train"], ["embed"], ["standardize"],
          ["extend", "--new-points", "{out}/data.csv"], ["report"])


def run_chain(root):
    """Run every stage but validate into ``root/out``; returns (config, out, exit codes)."""
    root.mkdir(parents=True, exist_ok=True)
    config = root / "config.json"
    config.write_text(json.dumps(CONFIG))
    out = root / "out"
    codes = {}
    for stage in STAGES:
        args = [a.format(out=out) for a in stage]
        codes[" ".join(stage)] = cli.main(["--config", str(config), "--out", str(out)] + args)
    return config, out, codes


def artifact_hashes(out):
    """sha256 of every artifact; sidecars carry a timestamp and are left out."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if not p.name.endswith(".meta.json")}


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    config, out, codes = run_chain(tmp_path_factory.mktemp("first"))
    return config, out, codes, artifact_hashes(out)


def test_every_stage_exits_zero(chain):
    _, _, codes, _ = chain
    assert codes == {key: 0 for key in codes}


def test_rerun_is_byte_identical(chain, tmp_path):
    _, _, _, first = chain
    _, out, _ = run_chain(tmp_path)
    assert "report.csv" in first and "extended_std_embedding.csv" in first
    assert artifact_hashes(out) == first


def test_exported_centroids_carry_original_polarity(chain):
    _, out, _, _ = chain
    with open(out / "reference.json") as fh:
        ref = json.load(fh)
    flips = np.asarray(ref["polarity_flips"], dtype=bool)
    assert flips.any()

    d = load_matrix(out / "preprocessed.csv")
    omega = ReferenceSet(indices=np.asarray(ref["indices"]), eta=ref["eta"])
    points_tree = PartitionTree.load(out / "points_tree.json")
    obs_tree = PartitionTree.load(out / "obs_tree.json")
    level = min(CONFIG["pseudopoints"]["level"], points_tree.depth)
    ps = extract_pseudopoints(points_tree, level, omega, d, obs_tree=obs_tree)

    with open(out / "pseudopoints.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    shown = np.array([[float(v) for v in row[2:-1]] for row in rows])
    expected = np.where(flips, -ps.centroids, ps.centroids)
    np.testing.assert_array_equal(shown, expected)


def test_auto_extracts_pseudopoints_once(chain, tmp_path, monkeypatch):
    config, out, _, first = chain
    work = shutil.copytree(out, tmp_path / "out")
    calls = []

    def counted(*args, _extract=expert.extract_pseudopoints, **kwargs):
        calls.append(args)
        return _extract(*args, **kwargs)
    monkeypatch.setattr(expert, "extract_pseudopoints", counted)
    ws = pipeline.Workspace(work, pipeline.load_config(config, {"paths.out": str(work)}))
    pipeline.run_pseudopoints_auto(ws)
    assert len(calls) == 1
    for name in ("labels.csv", "label_function.csv"):
        assert hashlib.sha256((work / name).read_bytes()).hexdigest() == first[name]


def test_auto_labels_record_the_truth_they_came_from(chain):
    _, out, _, _ = chain
    meta = json.loads((out / "labels.csv.meta.json").read_text())
    assert sorted(meta["inputs"]) == ["obs_tree.json", "points_tree.json",
                                      "preprocessed.csv", "pseudopoints.csv",
                                      "reference.json", "truth.json"]
    meta = json.loads((out / "label_function.csv.meta.json").read_text())
    assert sorted(meta["inputs"]) == ["labels.csv", "obs_tree.json", "points_tree.json",
                                      "preprocessed.csv", "pseudopoints.csv",
                                      "reference.json", "truth.json"]


def test_extended_ranking_records_the_label_function(chain):
    _, out, _, _ = chain
    inputs = json.loads((out / "extended_ranking.csv.meta.json").read_text())["inputs"]
    assert {"label_function.csv", "scaler.json", "extended_embedding.csv"} <= set(inputs)
    for inp, digest in inputs.items():
        assert digest == hashlib.sha256((out / inp).read_bytes()).hexdigest(), inp


@pytest.mark.parametrize("damage", ["remove", "change"])
def test_stage_refuses_a_missing_or_changed_input(chain, tmp_path, capsys, damage):
    config, out, _, _ = chain
    work = shutil.copytree(out, tmp_path / "out")
    if damage == "remove":
        (work / "label_function.csv").unlink()
    else:
        with open(work / "label_function.csv", "a") as fh:
            fh.write("\n")
    capsys.readouterr()
    assert cli.main(["--config", str(config), "--out", str(work), "embed"]) == 1
    err = capsys.readouterr().err
    assert "'ensemble.json' is stale" in err and "'label_function.csv'" in err


def test_train_sidecar_carries_the_training_record(chain):
    _, out, _, _ = chain
    meta = json.loads((out / "ensemble.json.meta.json").read_text())
    diagnostics = meta["diagnostics"]
    k, epochs = CONFIG["net"]["k"], CONFIG["net"]["epochs"]
    assert [net["index"] for net in diagnostics["nets"]] == list(range(k))
    assert all(net["epochs"] == epochs and 0.0 <= net["final_cost"] <= 1.0
               for net in diagnostics["nets"])
    assert diagnostics["retried"] == [] and diagnostics["failed"] == []
    assert 1 <= diagnostics["workers"] <= k
    # a helper process ran, so some child's peak RSS has been seen
    assert diagnostics["workers"] == 1 or diagnostics["children_max_rss_mb"] > 0


def test_cli_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize costs every process ~0.13 s and ~9 MB; only validate's
    # NNLS needs it, and it imports it when called
    src = str(Path(expertmap.__file__).parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import expertmap.cli; "
            "print('scipy.optimize' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, timeout=60)
    assert proc.stdout.strip() == "False"


def test_unknown_config_key_rejected(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"net": {"k": 3, "epochz": 1}}))
    assert cli.main(["--config", str(config), "--out", str(tmp_path / "out"), "synth"]) == 1
    assert "'net.epochz'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    with pytest.raises(ValidationError, match="'paths.outdir'"):
        pipeline.load_config(overrides={"paths.outdir": "x"})
    with pytest.raises(ValidationError, match="'paths.schema.x'"):
        pipeline.load_config(overrides={"paths.schema.x": 1})


def test_config_keys_written_by_the_benchmark_load(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"paths": {"out": "o", "data": "d.csv"},
                                  "net": {"k": 2, "epochs": 3, "pretrain_epochs": 1}}))
    cfg = pipeline.load_config(config, {"paths.out": "p", "net.master_seed": 5})
    assert (cfg["paths"], cfg["net"]["k"], cfg["net"]["master_seed"]) == (
        dict(pipeline.DEFAULT_CONFIG["paths"], out="p", data="d.csv"), 2, 5)


@pytest.mark.xfail(strict=True, raises=BoundViolation,
                   reason="ROADMAP open item 1: separation_bound_check asserts a form "
                          "that is not an inequality (LHS 0.121 < RHS 0.304 here)")
def test_validate_stage(chain):
    config, out, _, _ = chain
    ws = pipeline.Workspace(out, pipeline.load_config(config, {"paths.out": str(out)}))
    pipeline.run_validate(ws)
    assert cli.main(["--config", str(config), "--out", str(out), "validate"]) == 0
