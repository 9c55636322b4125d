"""End to end: every CLI subcommand on a small synthetic config."""

import concurrent.futures
import csv
import hashlib
import json
import multiprocessing
import os
import shutil
import subprocess
import sys
import tracemalloc
from collections import Counter
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

import expertmap
from expertmap import cli, cogeometry, expert, netens, pipeline, whiten
from expertmap.cogeometry import PartitionTree
from expertmap.dataset import ReferenceSet, load_matrix
from expertmap.errors import ParseError, ValidationError
from expertmap.expert import extract_pseudopoints

CONFIG = {"synth": {"n_points": 150},
          "net": {"k": 5, "epochs": 40, "pretrain_epochs": 10},
          "pseudopoints": {"level": 4}}

STAGES = (["synth"], ["preprocess"], ["organize"], ["pseudopoints", "export"],
          ["pseudopoints", "auto"], ["train"], ["embed"], ["standardize"],
          ["extend", "--new-points", "{out}/data.csv"], ["validate"], ["report"])


def run_chain(root):
    """Run every stage into ``root/out``; returns (config, out, exit codes)."""
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
    omega = ReferenceSet(indices=np.asarray(ref["indices"]))
    points_tree, obs_tree = (PartitionTree.from_json(json.loads((out / name).read_text()))
                             for name in ("points_tree.json", "obs_tree.json"))
    level = min(CONFIG["pseudopoints"]["level"], points_tree.depth)
    ps = extract_pseudopoints(points_tree, level, omega, d, obs_tree=obs_tree)

    with open(out / "pseudopoints.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    shown = np.array([[float(v) for v in row[2:-1]] for row in rows])
    expected = np.where(flips, -ps.centroids, ps.centroids)
    np.testing.assert_array_equal(shown, expected)
    meta = json.loads((out / "pseudopoints.csv.meta.json").read_text())
    assert meta["diagnostics"] == {"imputed_cells": len(ps.imputed_cells)}


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


def test_organize_builds_each_tree_once(chain, tmp_path, monkeypatch):
    config, out, _, first = chain
    work = shutil.copytree(out, tmp_path / "out")
    calls = Counter()
    for name in ("build_partition_tree", "emd_affinity"):
        def counted(*args, _call=getattr(cogeometry, name), _name=name, **kwargs):
            calls[_name] += 1
            return _call(*args, **kwargs)
        monkeypatch.setattr(cogeometry, name, counted)
    ws = pipeline.Workspace(work, pipeline.load_config(config, {"paths.out": str(work)}))
    pipeline.run_organize(ws)
    assert calls == {"build_partition_tree": 2, "emd_affinity": 1}
    for name in ("points_tree.json", "obs_tree.json", "affinity.npy"):
        assert hashlib.sha256((work / name).read_bytes()).hexdigest() == first[name]
    # affinity.npy holds the cosine affinity that the points tree is built from
    d = load_matrix(work / "preprocessed.csv")
    omega = ReferenceSet(indices=np.asarray(
        json.loads((work / "reference.json").read_text())["indices"]))
    expected = cogeometry.cosine_affinity(omega, d).entries
    saved = np.load(work / "affinity.npy")
    assert saved.dtype == expected.dtype and saved.shape == expected.shape
    assert saved.tobytes() == expected.tobytes()


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


@pytest.mark.parametrize("damage", ["schema_version 1", "truncated"])
@pytest.mark.parametrize("stage", [["embed"], ["extend", "--new-points", "{out}/data.csv"],
                                   ["validate"]], ids=lambda stage: stage[0])
def test_stage_refuses_an_ensemble_file_it_cannot_read(chain, tmp_path, capsys, damage, stage):
    config, out, _, _ = chain
    work = shutil.copytree(out, tmp_path / "out")
    path = work / "ensemble.json"
    text = path.read_text()
    if damage == "truncated":
        path.write_text(text[:len(text) // 2])
    else:
        path.write_text(json.dumps(dict(json.loads(text), schema_version=1)))
    capsys.readouterr()
    args = [a.format(out=work) for a in stage]
    assert cli.main(["--config", str(config), "--out", str(work)] + args) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: ensemble file {path} ")
    assert err.rstrip().endswith("rerun 'train' to rewrite it")


@pytest.mark.parametrize("stage, name", [("standardize", "embedding.csv.meta.json"),
                                         ("standardize", "embedding.json"),
                                         ("embed", "obs_tree.json")])
def test_stage_names_a_truncated_json_file(chain, tmp_path, capsys, stage, name):
    config, out, _, _ = chain
    work = shutil.copytree(out, tmp_path / "out")
    path = work / name
    text = path.read_text()
    path.write_text(text[:len(text) // 2])
    capsys.readouterr()
    assert cli.main(["--config", str(config), "--out", str(work), stage]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f" {path} is not valid JSON: " in err
    # an artifact names the stage that rewrites it; a sidecar names none
    producer = {"embedding.json": "embed", "obs_tree.json": "organize"}.get(name)
    assert err.rstrip().endswith(f"; rerun '{producer}' to rewrite it") == bool(producer)


@pytest.mark.parametrize("eigenvalue, t", [(0.0, 1.0), (1e-200, 2.0)],
                         ids=["zero", "underflows"])
def test_standardize_names_a_coordinate_whose_eigenvalue_power_is_zero(chain, tmp_path, capsys,
                                                                      eigenvalue, t):
    # the coordinates over lambda^t would be inf or nan
    config, out, _, _ = chain
    work = shutil.copytree(out, tmp_path / "out")
    path = work / "embedding.json"
    obj = json.loads(path.read_text())
    obj["eigenvalues"][1], obj["t"] = eigenvalue, t
    path.write_text(json.dumps(obj))
    capsys.readouterr()
    assert cli.main(["--config", str(config), "--out", str(work), "standardize"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: embedding file {path}: coordinate 'coord_2' has eigenvalue "
                          f"{eigenvalue!r}, whose power t = {t!r} is 0")
    assert err.rstrip().endswith("rerun 'embed' to rewrite it")


@pytest.mark.parametrize("stage, name, key, producer", [
    ("embed", "reference.json", "indices", "preprocess"),
    ("standardize", "embedding.json", "eigenvalues", "embed"),
    ("train", "obs_tree.json", "levels", "organize")])
def test_stage_names_a_json_file_that_lacks_a_key(chain, tmp_path, capsys, stage, name, key,
                                                  producer):
    config, out, _, _ = chain
    work = shutil.copytree(out, tmp_path / "out")
    path = work / name
    obj = json.loads(path.read_text())
    del obj[key]
    path.write_text(json.dumps(obj))
    capsys.readouterr()
    assert cli.main(["--config", str(config), "--out", str(work), stage]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f" {path} has no key '{key}'; " in err
    assert err.rstrip().endswith(f"rerun '{producer}' to rewrite it")


@pytest.mark.parametrize("stage, name, where, producer", [
    (["organize"], "reference.json", ("indices", 0), "preprocess"),
    (["pseudopoints", "export"], "points_tree.json", ("levels", -1, 0, 0), "organize")],
    ids=["reference_index", "tree_member"])
def test_stage_names_a_json_file_with_a_value_it_cannot_convert(chain, tmp_path, capsys,
                                                                stage, name, where, producer):
    config, out, _, _ = chain
    work = shutil.copytree(out, tmp_path / "out")
    path = work / name
    obj = node = json.loads(path.read_text())
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = "x"       # an index where the file holds integers
    path.write_text(json.dumps(obj))
    capsys.readouterr()
    assert cli.main(["--config", str(config), "--out", str(work)] + stage) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f" {path} is malformed (ValueError: " in err
    assert err.rstrip().endswith(f"rerun '{producer}' to rewrite it")


@pytest.mark.parametrize("position, value, why", [
    (-1, 99999, "index 99999 at position {k} is outside the 150 rows of preprocessed.csv"),
    (1, "x + 0.5", "index {v!r} at position 1 is not a whole number"),
    (2, "repeat", "index {v} at position 2 does not follow {v} in ascending order"),
    (0, -1, "index -1 at position 0 is outside the 150 rows of preprocessed.csv")],
    ids=["out_of_range", "fraction", "repeated", "negative"])
def test_organize_refuses_a_reference_index_preprocess_cannot_write(chain, tmp_path, capsys,
                                                                     position, value, why):
    config, out, _, _ = chain
    work = shutil.copytree(out, tmp_path / "out")
    path = work / "reference.json"
    obj = json.loads(path.read_text())
    indices = obj["indices"]
    k = position % len(indices)
    indices[k] = {"x + 0.5": indices[k] + 0.5, "repeat": indices[k - 1]}.get(value, value)
    path.write_text(json.dumps(obj))
    capsys.readouterr()
    assert cli.main(["--config", str(config), "--out", str(work), "organize"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: reference file {path} is malformed (ValueError: "
                          + why.format(k=k, v=indices[k]) + ")")
    assert err.rstrip().endswith("rerun 'preprocess' to rewrite it")


@pytest.mark.parametrize("cell", ["", "abc"], ids=["empty", "abc"])
@pytest.mark.parametrize("stage, name, producer", [
    ("standardize", "embedding.csv", "embed"),
    ("train", "label_function.csv", "pseudopoints import"),
    ("report", "ranking.csv", "train")])
def test_stage_names_a_table_with_a_damaged_cell(chain, tmp_path, capsys, stage, name,
                                                 producer, cell):
    config, out, _, _ = chain
    work = shutil.copytree(out, tmp_path / "out")
    path = work / name
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[3][-1] = cell
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    capsys.readouterr()
    assert cli.main(["--config", str(config), "--out", str(work), stage]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: row 4: ")
    assert err.rstrip().endswith(f"rerun '{producer}' to rewrite it")


@pytest.mark.parametrize("stage, name, column, producer", [
    ("train", "label_function.csv", "g_score", "pseudopoints import"),
    ("report", "ranking.csv", "f_score", "train")])
def test_stage_names_a_table_that_lacks_a_column(chain, tmp_path, capsys, stage, name, column,
                                                 producer):
    config, out, _, _ = chain
    work = shutil.copytree(out, tmp_path / "out")
    path = work / name
    path.write_text(path.read_text().replace(column, "x_score", 1))
    capsys.readouterr()
    assert cli.main(["--config", str(config), "--out", str(work), stage]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path} has no column '{column}'; ")
    assert err.rstrip().endswith(f"rerun '{producer}' to rewrite it")


def auto_on_truth(chain, tmp_path, capsys, edit):
    """Exit code and stderr of 'pseudopoints auto' after ``edit`` of the
    truth file's object, with the file's path."""
    config, out, _, _ = chain
    work = shutil.copytree(out, tmp_path / "out")
    path = work / "truth.json"
    truth = json.loads(path.read_text())
    edit(truth)
    path.write_text(json.dumps(truth))
    capsys.readouterr()
    code = cli.main(["--config", str(config), "--out", str(work), "pseudopoints", "auto"])
    return code, capsys.readouterr().err, path


def test_auto_names_a_reference_point_the_truth_file_lacks(chain, tmp_path, capsys):
    _, out, _, _ = chain
    first = json.loads((out / "reference.json").read_text())["indices"][0]
    pid = load_matrix(out / "preprocessed.csv").point_ids[first]

    def drop(truth):
        k = truth["point_ids"].index(pid)
        del truth["point_ids"][k], truth["ground_truth"][k]
    code, err, path = auto_on_truth(chain, tmp_path, capsys, drop)
    assert code == 1
    assert err.startswith(f"error: truth file {path} has no ground truth for reference "
                          f"point {pid!r}; ")
    assert err.rstrip().endswith("rerun 'synth' to rewrite it")


def test_auto_rejects_truth_lists_of_unequal_length(chain, tmp_path, capsys):
    code, err, path = auto_on_truth(chain, tmp_path, capsys,
                                    lambda truth: truth["ground_truth"].pop())
    assert code == 1
    n = CONFIG["synth"]["n_points"]
    assert err.startswith(f"error: truth file {path} has {n} point_ids but {n - 1} "
                          "ground_truth values; ")
    assert err.rstrip().endswith("rerun 'synth' to rewrite it")


def test_import_copies_a_labels_file_from_outside_the_workspace(chain, tmp_path):
    config, out, _, first = chain
    work = shutil.copytree(out, tmp_path / "out")
    labels = shutil.copyfile(work / "labels.csv", tmp_path / "scores.csv")
    for name in ("labels.csv", "label_function.csv"):
        (work / name).unlink()
    assert cli.main(["--config", str(config), "--out", str(work),
                     "pseudopoints", "import", "--labels", str(labels)]) == 0
    for name in ("labels.csv", "label_function.csv"):
        assert hashlib.sha256((work / name).read_bytes()).hexdigest() == first[name], name


def test_stages_past_pseudopoints_read_the_observation_tree_alone(chain):
    _, out, _, _ = chain
    for name in ("ensemble.json", "ranking.csv", "embedding.csv", "extended_embedding.csv"):
        inputs = json.loads((out / f"{name}.meta.json").read_text())["inputs"]
        assert "obs_tree.json" in inputs and "points_tree.json" not in inputs, name


def test_each_stage_hashes_each_file_once(chain, tmp_path, monkeypatch):
    config, out, _, _ = chain
    work = shutil.copytree(out, tmp_path / "out")
    hashed = []
    real = pipeline.file_hash
    monkeypatch.setattr(pipeline, "file_hash",
                        lambda path: hashed.append(Path(path).name) or real(path))
    for stage in STAGES[1:]:
        hashed.clear()
        args = [a.format(out=work) for a in stage]
        assert cli.main(["--config", str(config), "--out", str(work)] + args) == 0
        counts = Counter(hashed)
        assert counts and max(counts.values()) == 1, (stage, counts)
    # the rerun's sidecars name the same inputs with the same hashes
    for meta in sorted(out.glob("*.meta.json")):
        first, again = (json.loads(p.read_text()) for p in (meta, work / meta.name))
        assert again["inputs"] == first["inputs"], meta.name


def count_calls(monkeypatch, module, name):
    """Replace ``module.name`` with a wrapper that counts its calls by the
    file name of their first argument; returns the Counter."""
    calls = Counter()
    real = getattr(module, name)

    def counted(path, *args):
        calls[Path(path).name] += 1
        return real(path, *args)
    monkeypatch.setattr(module, name, counted)
    return calls


def test_a_chain_in_one_process_parses_each_artifact_once(chain, tmp_path, monkeypatch):
    # from an empty read memo, as in a process of its own: each stage after
    # the first that reads a file reuses its parse
    config, out, _, first = chain
    work = shutil.copytree(out, tmp_path / "out")
    pipeline._PARSED.clear()
    tables = count_calls(monkeypatch, pipeline, "load_matrix")
    ensembles = count_calls(monkeypatch, netens, "load_ensemble")
    for stage in STAGES[1:]:
        args = [a.format(out=work) for a in stage]
        assert cli.main(["--config", str(config), "--out", str(work)] + args) == 0, stage
    assert tables == {name: 1 for name in ("data.csv", "preprocessed.csv", "label_function.csv",
                                           "embedding.csv", "std_embedding.csv", "ranking.csv")}
    assert ensembles == {"ensemble.json": 1}
    assert artifact_hashes(work) == first


def test_a_rewritten_artifact_is_parsed_again(chain, tmp_path, monkeypatch):
    config, out, _, _ = chain
    work = shutil.copytree(out, tmp_path / "out")
    calls = []
    real = pipeline._reference
    monkeypatch.setattr(pipeline, "_reference",
                        lambda *args: calls.append(args) or real(*args))

    def reference_rows():
        ws = pipeline.Workspace(work, pipeline.load_config(config, {"paths.out": str(work)}))
        return len(pipeline._load_preprocessed(ws)[1].indices)
    before = reference_rows()
    assert reference_rows() == before and len(calls) == 1
    # a larger eta takes more points into the reference set
    assert cli.main(["--config", str(config), "--out", str(work), "preprocess"]) == 0
    eta = json.loads((work / "reference.json").read_text())["eta"]
    edited = tmp_path / "eta.json"
    edited.write_text(json.dumps({**CONFIG, "eta": eta + 2}))
    assert cli.main(["--config", str(edited), "--out", str(work), "preprocess"]) == 0
    assert reference_rows() > before and len(calls) == 2


def test_an_artifact_edited_after_its_parse_is_still_refused(chain, tmp_path, capsys):
    config, out, _, _ = chain
    work = shutil.copytree(out, tmp_path / "out")
    assert cli.main(["--config", str(config), "--out", str(work), "organize"]) == 0
    path = work / "preprocessed.csv"
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[1][1] = "0.5"
    write_rows(path, rows)
    capsys.readouterr()
    assert cli.main(["--config", str(config), "--out", str(work), "pseudopoints", "export"]) == 1
    err = capsys.readouterr().err
    assert "'reference.json' is stale: its input 'preprocessed.csv' has changed" in err


def test_a_parse_that_raises_is_not_kept(chain, tmp_path):
    config, out, _, _ = chain
    ws = pipeline.Workspace(out, pipeline.load_config(config, {"paths.out": str(out)}))
    calls = []

    def parse(path):
        calls.append(path)
        if len(calls) == 1:
            raise ParseError(f"{path}: not yet")
        return load_matrix(path)
    with pytest.raises(ParseError, match="not yet; rerun 'train' to rewrite it"):
        ws.read("ranking.csv", parse)
    assert ws.read("ranking.csv", parse).n_points == ws.read("ranking.csv", parse).n_points
    assert len(calls) == 2


def test_the_same_bytes_with_another_schema_are_parsed_again(chain, tmp_path, monkeypatch):
    config, out, _, _ = chain
    calls = count_calls(monkeypatch, pipeline, "load_matrix")
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({"weights": {"default": 2.0}}))

    def weights(schema_path):
        ws = pipeline.Workspace(out, pipeline.load_config(
            config, {"paths.out": str(out), "paths.schema": schema_path}))
        return dict(pipeline._load_preprocessed(ws)[0].weight_of)
    assert weights(None) == weights(None) == {"default": 1.0}
    assert calls["preprocessed.csv"] == 1
    assert weights(str(schema)) == {"default": 2.0}
    assert calls["preprocessed.csv"] == 2
    # the memo holds one version of each artifact: the last one parsed
    assert weights(None) == {"default": 1.0}
    assert calls["preprocessed.csv"] == 3


def test_a_kept_parse_is_read_only(chain):
    config, out, _, _ = chain
    ws = pipeline.Workspace(out, pipeline.load_config(config, {"paths.out": str(out)}))
    d, omega = pipeline._load_preprocessed(ws)
    ensemble = ws.read("ensemble.json", netens.load_ensemble)
    for array in (d.values, d.mask, omega.indices, ensemble.nets[0].W1):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    with pytest.raises(TypeError):
        d.weight_of["default"] = 3.0
    assert d is pipeline._load_preprocessed(ws)[0]


def test_extend_sidecar_carries_its_diagnostics(chain):
    _, out, _, _ = chain
    meta = json.loads((out / "extended_embedding.csv.meta.json").read_text())
    diagnostics = meta["diagnostics"]
    n_ref = len(json.loads((out / "reference.json").read_text())["indices"])
    assert diagnostics["new_points"] == CONFIG["synth"]["n_points"]
    nets = json.loads((out / "ensemble.json").read_text())["nets"]
    assert diagnostics["representation_dim"] == sum(net["hyper"]["h1"] for net in nets)
    assert diagnostics["slice_rows"] == pipeline.EXTEND_SLICE
    assert diagnostics["skipped_coordinates"] == {"embedding": [], "std_embedding": []}
    # the new points include the reference points, each at exponent 0 from
    # itself, and the others lie among them
    for kind in ("cross", "one_sided"):
        assert 0.0 <= diagnostics["max_nearest_exponent"][kind] < np.inf, kind
        assert 0 <= diagnostics["beyond_one_bandwidth"][kind] <= CONFIG["synth"]["n_points"] - n_ref


def read_coordinates(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return np.array([[float(v) for v in row[1:]] for row in rows])


def test_extend_agrees_across_blas_threads(chain, tmp_path):
    # the cross kernel's matrix product may round differently with a second
    # BLAS thread; the extended coordinates must stay within the tolerance
    config, out, _, _ = chain
    src = str(Path(expertmap.__file__).parents[1])
    got = {}
    for threads in (1, 2):
        work = shutil.copytree(out, tmp_path / f"threads{threads}")
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), PYTHONPATH=src)
        subprocess.run([sys.executable, "-m", "expertmap.cli", "--config", str(config),
                        "--out", str(work), "extend", "--new-points", str(work / "data.csv")],
                       env=env, check=True, capture_output=True, timeout=120)
        got[threads] = work
    for name, tolerance in (("extended_embedding.csv", 1e-12),
                            ("extended_std_embedding.csv", 1e-9)):
        one, two = (read_coordinates(got[t] / name) for t in (1, 2))
        assert one.shape == two.shape
        assert np.max(np.abs(one - two)) <= tolerance * np.max(np.abs(one)), name


def run_extend_on(work, config, new_points):
    ws = pipeline.Workspace(work, pipeline.load_config(config, {"paths.out": str(work)}))
    pipeline.run_extend(ws, new_points)


def use_workers(monkeypatch, n):
    """Size extend's pool as for a BLAS pinned to one thread on n cores: n
    helpers for a file of more than one block, none for n = 1."""
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def extend_diagnostics(work):
    return json.loads((work / "extended_embedding.csv.meta.json").read_text())["diagnostics"]


@pytest.fixture
def extended_in_blocks(chain, tmp_path, monkeypatch):
    """extend in this process on the chain's 150 new points in blocks of 32
    (four full blocks and a ragged one) and slices of 10, whose rest of 2
    rows in a full block joins the last slice; returns the workspace and the
    row count of each cdist call."""
    config, out, _, _ = chain
    use_workers(monkeypatch, 1)
    work = shutil.copytree(out, tmp_path / "out")
    rows_per_call = []
    real = pipeline.cdist
    monkeypatch.setattr(pipeline, "cdist",
                        lambda a, b: rows_per_call.append(len(a)) or real(a, b))
    monkeypatch.setattr(pipeline, "EXTEND_BLOCK", 32)
    monkeypatch.setattr(pipeline, "EXTEND_SLICE", 10)
    run_extend_on(work, config, work / "data.csv")
    return work, rows_per_call


def test_extend_in_blocks_matches_one_block(chain, extended_in_blocks):
    _, out, _, _ = chain
    work, _ = extended_in_blocks
    for name, tolerance in (("extended_embedding.csv", 1e-12),
                            ("extended_std_embedding.csv", 1e-9),
                            ("extended_ranking.csv", 1e-12)):
        whole, blocked = read_coordinates(out / name), read_coordinates(work / name)
        assert whole.shape == blocked.shape
        assert np.max(np.abs(whole - blocked)) <= tolerance * np.max(np.abs(whole)), name
    whole, blocked = (json.loads((w / "extended_embedding.csv.meta.json").read_text())
                      ["diagnostics"] for w in (out, work))
    for key in ("new_points", "skipped_coordinates", "beyond_one_bandwidth"):
        assert blocked[key] == whole[key], key
    for kind, value in whole["max_nearest_exponent"].items():
        assert blocked["max_nearest_exponent"][kind] == pytest.approx(value, rel=1e-12), kind


def test_extend_streams_its_new_points(extended_in_blocks):
    _, rows_per_call = extended_in_blocks
    assert rows_per_call == [10, 10, 12] * 4 + [10, 12]


def write_rows(path, rows):
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def extend_peak_bytes(work, config, new_points, run):
    """The tracemalloc peak of run_extend on a fresh copy of ``work`` at ``run``,
    with the read memo empty, as in a process of its own: each run parses
    the artifacts it reads."""
    run = shutil.copytree(work, run)
    pipeline._PARSED.clear()
    tracemalloc.start()
    try:
        run_extend_on(run, config, new_points)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def times_over(out, path, times):
    """The chain's 150 new points ``times`` over, with distinct ids, at ``path``."""
    with open(out / "data.csv", newline="") as fh:
        header, *body = list(csv.reader(fh))
    write_rows(path, [header] + [[f"{row[0]}-{r}", *row[1:]]
                                 for r in range(times) for row in body])
    return path


def test_extend_memory_does_not_grow_with_new_points(chain, tmp_path, monkeypatch):
    # 150 new points and the same rows four times over: in blocks of 32 the
    # peaks must agree within 64 KiB, where holding the 450 further rows'
    # cells as parsed strings alone would take ~2 MB
    config, out, _, _ = chain
    many = times_over(out, tmp_path / "many.csv", 4)
    monkeypatch.setattr(pipeline, "EXTEND_BLOCK", 32)
    few = extend_peak_bytes(out, config, out / "data.csv", tmp_path / "few")
    many = extend_peak_bytes(out, config, many, tmp_path / "run-many")
    assert abs(many - few) <= 64 * 1024, (few, many)


def test_extend_memory_does_not_grow_with_block_rows_times_width(chain, tmp_path):
    # nets 400 wide, so that the representation outweighs the block's other
    # buffers.  750 new points and 150 each go through as one block: the 600
    # further rows' representation, were it held whole, would add 600 x
    # representation_dim float64 values to the peak (1.3 times that was
    # measured); in slices of 256 (256, 256, 238) it adds one slice's growth
    # and the block's rows of the narrower buffers (0.2 times that)
    config, out, _, _ = chain
    wide = shutil.copytree(out, tmp_path / "wide")
    config = tmp_path / "wide.json"
    config.write_text(json.dumps({**CONFIG, "net": {**CONFIG["net"], "h1": [400, 400]}}))
    for stage in ("train", "embed", "standardize"):
        assert cli.main(["--config", str(config), "--out", str(wide), stage]) == 0
    many = times_over(out, tmp_path / "many.csv", 5)
    few = extend_peak_bytes(wide, config, out / "data.csv", tmp_path / "few")
    many = extend_peak_bytes(wide, config, many, tmp_path / "run-many")
    width = extend_diagnostics(tmp_path / "run-many")["representation_dim"]
    assert width == 5 * 400
    assert many - few <= 0.5 * 600 * width * 8, (few, many, width)


def test_extend_helpers_keep_a_bounded_window(chain, tmp_path, monkeypatch):
    # with two helpers, this process holds at most three blocks in flight:
    # from 150 new points to 2400 its peak grows by what extending every
    # block itself adds, the 2250 further ids that the duplicate check
    # keeps, and the blocks in flight, which came to ~90 KB.  Submitting
    # every block at once added ~1.15 MB of cells and rows.
    config, out, _, _ = chain
    many = times_over(out, tmp_path / "many.csv", 16)
    monkeypatch.setattr(pipeline, "EXTEND_BLOCK", 32)
    growth = {}
    for workers in (1, 2):
        use_workers(monkeypatch, workers)
        few, more = (extend_peak_bytes(out, config, points, tmp_path / f"{workers}-{name}")
                     for name, points in (("few", out / "data.csv"), ("many", many)))
        assert extend_diagnostics(tmp_path / f"{workers}-many")["workers"] == workers
        growth[workers] = more - few
    assert abs(growth[2] - growth[1]) <= 160 * 1024, growth


def extended_outputs(work):
    """The bytes of every extended_* artifact and sidecar in ``work``."""
    return {p.name: p.read_bytes() for p in work.iterdir() if p.name.startswith("extended_")}


def write_fault(out, new_points, fault):
    """Write the chain's new points to ``new_points`` with ``fault``, which
    a run in blocks of 32 meets after earlier blocks went through; returns
    the error class and message that extend must raise."""
    with open(out / "data.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    ids = [row[0] for row in rows[1:]]
    if fault == "duplicate id":
        rows[140][0] = rows[3][0]
        error, message = ValidationError, f"{new_points}: duplicate point ids: {[ids[2]]}"
    elif fault == "malformed row":
        rows[140][5] = "x"
        error, message = ParseError, (f"{new_points}: row 141: non-numeric value 'x' "
                                      f"in column {rows[0][5]!r}")
    else:
        for row in (rows[41], rows[141]):
            row[1:] = [""] * (len(row) - 1)
        error, message = ValidationError, (f"new points with no observed entry: "
                                           f"{[ids[40], ids[140]]}")
    write_rows(new_points, rows)
    return error, message


@pytest.mark.parametrize("fault", ["duplicate id", "malformed row"])
def test_failed_extend_leaves_the_outputs_as_they_were(chain, tmp_path, monkeypatch, fault):
    # the fault sits in the last of five blocks of 32, after four blocks
    # have gone through the extension
    config, out, _, _ = chain
    work = shutil.copytree(out, tmp_path / "out")
    error, message = write_fault(out, tmp_path / "new.csv", fault)
    before = extended_outputs(work)
    assert len(before) == 6
    monkeypatch.setattr(pipeline, "EXTEND_BLOCK", 32)
    with pytest.raises(error) as err:
        run_extend_on(work, config, tmp_path / "new.csv")
    assert str(err.value) == message
    assert extended_outputs(work) == before
    # no temporary file is left, by this run or by the chain's own extend
    assert sorted(p.name for p in work.iterdir()) == sorted(p.name for p in out.iterdir())
    assert not [p.name for p in work.iterdir() if p.name.endswith(".tmp")]


def test_extend_names_new_points_with_no_observed_entry(chain, tmp_path, monkeypatch):
    config, out, _, _ = chain
    work = shutil.copytree(out, tmp_path / "out")
    with open(work / "data.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    # data rows 5 and 40: one in the first block, one past it
    for row in (rows[6], rows[41]):
        row[1:] = [""] * (len(row) - 1)
    new_points = tmp_path / "new.csv"
    write_rows(new_points, rows)
    monkeypatch.setattr(pipeline, "EXTEND_BLOCK", 32)
    with pytest.raises(ValidationError) as err:
        run_extend_on(work, config, new_points)
    assert str(err.value) == (f"new points with no observed entry: "
                              f"{[rows[6][0], rows[41][0]]}")


def refuse_pool(*args, **kwargs):
    raise AssertionError("a helper pool was started")


@pytest.mark.parametrize("blas, cores, block, workers", [
    (None, 4, 32, 1),     # BLAS takes every core: this process extends every block
    ("2", 4, 32, 2),
    ("1", 3, 32, 3),      # more helpers than this machine may have cores
    ("1", 1, 32, 1),
    ("1", 2, 1024, 1),    # a file of one block
])
def test_extend_helpers_times_blas_threads_fit_the_cores(chain, tmp_path, monkeypatch,
                                                         blas, cores, block, workers):
    config, out, _, _ = chain
    work = shutil.copytree(out, tmp_path / "out")
    for var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    if blas is not None:
        monkeypatch.setenv("OMP_NUM_THREADS", blas)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
    if workers == 1:
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse_pool)
    monkeypatch.setattr(pipeline, "EXTEND_BLOCK", block)
    run_extend_on(work, config, work / "data.csv")
    assert extend_diagnostics(work)["workers"] == workers
    assert multiprocessing.active_children() == []


def test_extend_bytes_do_not_depend_on_the_workers(chain, tmp_path, monkeypatch):
    # five blocks of 32, extended in this process and by two helpers
    config, out, _, _ = chain
    monkeypatch.setattr(pipeline, "EXTEND_BLOCK", 32)
    got = {}
    for workers in (1, 2):
        work = shutil.copytree(out, tmp_path / f"workers{workers}")
        use_workers(monkeypatch, workers)
        run_extend_on(work, config, work / "data.csv")
        assert multiprocessing.active_children() == []
        diagnostics = extend_diagnostics(work)
        assert diagnostics.pop("workers") == workers
        got[workers] = diagnostics, {path.name: path.read_bytes()
                                     for path in work.glob("extended_*.csv")}
    assert got[1] == got[2]


@pytest.mark.parametrize("fault", ["duplicate id", "malformed row", "no observed entry"])
def test_failed_extend_in_helpers_leaves_the_outputs_as_they_were(chain, tmp_path,
                                                                  monkeypatch, fault):
    # two helpers, five blocks of 32: each fault is met while other blocks
    # are in flight
    config, out, _, _ = chain
    work = shutil.copytree(out, tmp_path / "out")
    error, message = write_fault(out, tmp_path / "new.csv", fault)
    before = extended_outputs(work)
    use_workers(monkeypatch, 2)
    monkeypatch.setattr(pipeline, "EXTEND_BLOCK", 32)
    with pytest.raises(error) as err:
        run_extend_on(work, config, tmp_path / "new.csv")
    assert str(err.value) == message
    assert multiprocessing.active_children() == []
    assert extended_outputs(work) == before
    assert sorted(p.name for p in work.iterdir()) == sorted(p.name for p in out.iterdir())


@pytest.mark.parametrize("workers", [1, 2])
def test_error_in_a_block_fails_extend_at_once(chain, tmp_path, monkeypatch, workers):
    # five blocks of 32: the first goes through in this process, and the
    # next one raises, in this process or, with two workers, in a helper
    config, out, _, _ = chain
    work = shutil.copytree(out, tmp_path / "out")
    before = extended_outputs(work)
    caller = os.getpid()
    real = whiten.one_sided_cross_kernel
    calls = []

    def fail_after_the_first_block(*args):
        calls.append(None)
        if len(calls) > 1:
            where = "this process" if os.getpid() == caller else "a helper"
            raise ValidationError(f"block failed in {where}")
        return real(*args)
    monkeypatch.setattr(whiten, "one_sided_cross_kernel", fail_after_the_first_block)
    use_workers(monkeypatch, workers)
    monkeypatch.setattr(pipeline, "EXTEND_BLOCK", 32)
    with pytest.raises(ValidationError) as err:
        run_extend_on(work, config, work / "data.csv")
    assert str(err.value) == ("block failed in a helper" if workers == 2
                              else "block failed in this process")
    # no block after the failed one was extended in this process
    assert len(calls) == (1 if workers == 2 else 2)
    assert multiprocessing.active_children() == []
    assert extended_outputs(work) == before
    assert sorted(p.name for p in work.iterdir()) == sorted(p.name for p in out.iterdir())


def test_extend_fails_when_a_helper_dies(chain, tmp_path, monkeypatch):
    config, out, _, _ = chain
    work = shutil.copytree(out, tmp_path / "out")
    before = extended_outputs(work)
    caller = os.getpid()
    real = whiten.one_sided_cross_kernel

    def die_in_a_helper(*args):
        if os.getpid() != caller:
            os._exit(1)
        return real(*args)
    monkeypatch.setattr(whiten, "one_sided_cross_kernel", die_in_a_helper)
    use_workers(monkeypatch, 2)
    monkeypatch.setattr(pipeline, "EXTEND_BLOCK", 32)
    with pytest.raises(BrokenProcessPool):
        run_extend_on(work, config, work / "data.csv")
    assert multiprocessing.active_children() == []
    assert extended_outputs(work) == before
    assert sorted(p.name for p in work.iterdir()) == sorted(p.name for p in out.iterdir())


def test_extend_places_a_far_point(chain, tmp_path, monkeypatch):
    # a new point whose representation lies 1e3 spreads from the reference
    # representations: its cross-kernel row underflows to zero sum unless it
    # is formed in the log domain
    config, out, _, _ = chain
    work = shutil.copytree(out, tmp_path / "out")
    with open(work / "data.csv", newline="") as fh:
        rows = list(csv.reader(fh))[:2]
    rows[1][0] = "far"
    write_rows(tmp_path / "far.csv", rows)
    real = netens.ensemble_forward

    def far_forward(e, X):
        rep, mean = real(e, X)
        return (rep + 1e3 * rep.std(), mean) if len(X) == 1 else (rep, mean)
    monkeypatch.setattr(netens, "ensemble_forward", far_forward)
    run_extend_on(work, config, tmp_path / "far.csv")
    for name in ("extended_embedding.csv", "extended_std_embedding.csv"):
        coords = read_coordinates(work / name)
        assert coords.shape[0] == 1 and np.all(np.isfinite(coords)), name
    diagnostics = json.loads((work / "extended_embedding.csv.meta.json").read_text())[
        "diagnostics"]
    assert diagnostics["beyond_one_bandwidth"]["cross"] == 1
    assert diagnostics["max_nearest_exponent"]["cross"] > 1e3


def test_train_sidecar_carries_the_training_record(chain):
    _, out, _, _ = chain
    meta = json.loads((out / "ensemble.json.meta.json").read_text())
    diagnostics = meta["diagnostics"]
    k, epochs = CONFIG["net"]["k"], CONFIG["net"]["epochs"]
    assert [net["index"] for net in diagnostics["nets"]] == list(range(k))
    assert all(net["epochs"] == epochs and 0.0 <= net["final_cost"] <= 1.0
               and net["seconds"] > 0.0 for net in diagnostics["nets"])
    assert diagnostics["blas_threads"] == netens.blas_threads()
    assert diagnostics["retried"] == [] and diagnostics["failed"] == []
    assert 1 <= diagnostics["workers"] <= k
    # a helper process ran, so some child's peak RSS has been seen
    assert diagnostics["workers"] == 1 or diagnostics["children_max_rss_mb"] > 0
    # one round trains every net, with no check
    assert (diagnostics["cap"], diagnostics["stopped_at"], diagnostics["checks"]) == \
        (k, k, [])


@pytest.mark.parametrize("threshold, checked, stopped", [(1.01, [30, 40], 50),
                                                         (0.0, [30], 30)])
def test_train_sidecar_records_the_round_checks(chain, tmp_path, monkeypatch,
                                                threshold, checked, stopped):
    # net.k is a cap: out of reach, the geometry is checked after 30 and 40
    # nets and all 50 train; at 0, train stops at the first check
    # the sidecar records the BLAS threads the environment sets
    _, out, _, _ = chain
    work = shutil.copytree(out, tmp_path / "out")
    config = tmp_path / "cap.json"
    config.write_text(json.dumps({**CONFIG, "net": {**CONFIG["net"], "k": 50}}))
    monkeypatch.setattr(pipeline, "CONVERGED_OVERLAP", threshold)
    for var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    assert cli.main(["--config", str(config), "--out", str(work), "train"]) == 0
    diagnostics = json.loads((work / "ensemble.json.meta.json").read_text())["diagnostics"]
    assert (diagnostics["cap"], diagnostics["stopped_at"]) == (50, stopped)
    assert [check["nets"] for check in diagnostics["checks"]] == checked
    assert all(0.0 < check["overlap"] <= 1.0 and check["seconds"] > 0.0
               for check in diagnostics["checks"])
    assert len(diagnostics["nets"]) == stopped and diagnostics["blas_threads"] == 2
    assert len(json.loads((work / "ensemble.json").read_text())["nets"]) == stopped


def test_train_checks_the_geometry_that_embed_writes(chain, tmp_path, monkeypatch):
    # at threshold 0 train stops at the first check, which embeds the 20
    # nets before the round and then the 30 it keeps
    _, out, _, _ = chain
    work = shutil.copytree(out, tmp_path / "out")
    config = tmp_path / "cap.json"
    config.write_text(json.dumps({**CONFIG, "net": {**CONFIG["net"], "k": 50}}))
    monkeypatch.setattr(pipeline, "CONVERGED_OVERLAP", 0.0)
    embedded = []
    real = pipeline._diffusion
    monkeypatch.setattr(pipeline, "_diffusion",
                        lambda ws, kernel: embedded.append(real(ws, kernel)) or embedded[-1])
    assert cli.main(["--config", str(config), "--out", str(work), "train"]) == 0
    assert len(embedded) == 2
    assert len(json.loads((work / "ensemble.json").read_text())["nets"]) == 30
    assert cli.main(["--config", str(config), "--out", str(work), "embed"]) == 0
    np.testing.assert_array_equal(embedded[1].coordinates,
                                  read_coordinates(work / "embedding.csv"))


def test_standardize_sidecar_reports_its_kernel(chain):
    _, out, _, _ = chain
    diagnostics = json.loads((out / "std_embedding.json.meta.json").read_text())["diagnostics"]
    eigenvalues = json.loads((out / "std_embedding.json").read_text())["eigenvalues"]
    assert diagnostics["kernel_components"] >= 1
    assert diagnostics["spectral_gap"] == 1.0 - eigenvalues[0]


def test_standardize_reports_a_disconnected_kernel_and_goes_on(chain, tmp_path, monkeypatch):
    # the standardized kernel cut in two halves with no entry between them:
    # lambda_1 is 1, which standardize reports and does not raise on
    config, out, _, _ = chain
    work = shutil.copytree(out, tmp_path / "out")
    real = whiten.standardized_kernel

    def cut(emb, lm, r):
        kernel = real(emb, lm, r)
        half = kernel.size // 2
        kernel.entries[:half, half:] = 0.0
        kernel.entries[half:, :half] = 0.0
        return kernel
    monkeypatch.setattr(whiten, "standardized_kernel", cut)
    assert cli.main(["--config", str(config), "--out", str(work), "standardize"]) == 0
    diagnostics = json.loads((work / "std_embedding.json.meta.json").read_text())["diagnostics"]
    assert diagnostics["kernel_components"] == 2
    assert abs(diagnostics["spectral_gap"]) <= 1e-12


def test_cli_import_leaves_scipy_unloaded():
    # SciPy costs a process ~0.55 s and ~33 MB, and no stage needs it
    src = str(Path(expertmap.__file__).parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import expertmap.cli; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, timeout=60)
    assert proc.stdout.strip() == "[]"


# Runs STAGES through cli.main with every import of SciPy failing; prints
# each stage's exit code and train's checks as JSON.
WITHOUT_SCIPY = """
import json, sys
sys.modules["scipy"] = None
sys.path.insert(0, {src!r})
from expertmap import cli
codes = [cli.main(["--config", {config!r}, "--out", {out!r}] + args) for args in {stages!r}]
meta = json.load(open({out!r} + "/ensemble.json.meta.json"))
print(json.dumps({{"codes": codes, "checks": meta["diagnostics"]["checks"]}}))
"""


def test_every_stage_runs_without_scipy(tmp_path):
    # net.k = 31: one check runs, after the round that reaches 30 nets
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**CONFIG, "net": {"k": 31, "epochs": 10,
                                                     "pretrain_epochs": 2}}))
    out = tmp_path / "out"
    stages = [[a.format(out=out) for a in stage] for stage in STAGES]
    code = WITHOUT_SCIPY.format(src=str(Path(expertmap.__file__).parents[1]),
                                config=str(config), out=str(out), stages=stages)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["codes"] == [0] * len(STAGES), proc.stderr
    assert [check["nets"] for check in result["checks"]] == [30]
    assert result["checks"][0]["overlap"] is not None


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
    with pytest.raises(ValidationError, match="config key 'net' must be an object"):
        pipeline.merge_config({"net": 3})


# keys a config file may still carry: organize builds each tree once, and the
# other five are module constants (README, --config)
@pytest.mark.parametrize("key", ["tree.iters", "tree.embed_dim", "tree.balance_factor",
                                 "whiten.pinv_tol", "validate.neighbors", "validate.bins"])
def test_a_retired_config_key_is_rejected(key, tmp_path, capsys):
    section, leaf = key.split(".")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({section: {leaf: 2}}))
    assert cli.main(["--config", str(config), "--out", str(tmp_path / "out"), "organize"]) == 1
    assert f"unknown config key {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize("section, leaf, value, expected", [
    ("tree", "depth", 3.5, "null or an integer, not 3.5"),
    ("tree", "beta", "x", 'a number, not "x"'),
    ("net", "k", True, "an integer, not true")])
def test_a_config_value_of_the_wrong_type_exits_1(tmp_path, capsys, section, leaf, value,
                                                  expected):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({section: {leaf: value}}))
    assert cli.main(["--config", str(config), "--out", str(tmp_path / "out"), "organize"]) == 1
    assert capsys.readouterr().err == (f"error: config key '{section}.{leaf}' must be "
                                       f"{expected}\n")


@pytest.mark.parametrize("key, value, least, stage", [
    ("kernel.r", 0, 1, "embed"), ("kernel.r", -2, 1, "embed"),
    ("whiten.k", 0, 1, "standardize"), ("whiten.k", -3, 1, "standardize"),
    ("net.epochs", -1, 0, "train")])
def test_a_config_integer_below_its_least_exits_1(chain, tmp_path, capsys, key, value, least,
                                                  stage):
    # each of these ran to exit 0 on a bandwidth or an epoch count that means
    # nothing, or crashed in an eigensolve
    _, out, _, _ = chain
    work = shutil.copytree(out, tmp_path / "out")
    section, leaf = key.split(".")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**CONFIG, section: {**CONFIG.get(section, {}), leaf: value}}))
    assert cli.main(["--config", str(config), "--out", str(work), stage]) == 1
    assert capsys.readouterr().err == (f"error: config key {key!r} must be at least {least}, "
                                       f"not {value}\n")


def test_seed_level_and_k_nets_override_the_config_file(chain, tmp_path, monkeypatch):
    config, _, _, _ = chain         # net.k 5, pseudopoints.level 4, the default seeds
    seen = []
    # the step is looked up when the stage runs, so this stand-in is called
    monkeypatch.setattr(pipeline, "run_train", seen.append)
    assert cli.main(["--config", str(config), "--out", str(tmp_path / "out"), "--seed", "11",
                     "--level", "3", "--k-nets", "6", "train"]) == 0
    (ws,) = seen
    assert ws.cfg["net"]["master_seed"] == ws.cfg["synth"]["seed"] == 11
    assert (ws.cfg["pseudopoints"]["level"], ws.cfg["net"]["k"]) == (3, 6)
    assert ws.cfg["net"]["epochs"] == CONFIG["net"]["epochs"]


def test_seed_draws_the_data_that_synth_seed_draws(tmp_path):
    def synth(name, config, *flags):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"synth": {"n_points": 40, **config}}))
        out = tmp_path / name
        assert cli.main(["--config", str(path), "--out", str(out), *flags, "synth"]) == 0
        return artifact_hashes(out)
    by_flag = synth("flag", {}, "--seed", "11")
    assert by_flag == synth("config", {"seed": 11})
    assert by_flag["data.csv"] != synth("default", {})["data.csv"]


def test_config_keys_written_by_the_benchmark_load(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"paths": {"out": "o", "data": "d.csv"},
                                  "net": {"k": 2, "epochs": 3, "pretrain_epochs": 1}}))
    cfg = pipeline.load_config(config, {"paths.out": "p", "net.master_seed": 5})
    assert (cfg["paths"], cfg["net"]["k"], cfg["net"]["master_seed"]) == (
        dict(pipeline.DEFAULT_CONFIG["paths"], out="p", data="d.csv"), 2, 5)


def test_validate_stage(chain):
    config, out, _, _ = chain
    ws = pipeline.Workspace(out, pipeline.load_config(config, {"paths.out": str(out)}))
    pipeline.run_validate(ws)
    assert cli.main(["--config", str(config), "--out", str(out), "validate"]) == 0


def read_rows(path):
    """point_id -> that row of a CSV, as a dict of column -> cell."""
    with open(path, newline="") as fh:
        return {row["point_id"]: row for row in csv.DictReader(fh)}


def test_report_joins_the_per_point_artifacts(chain):
    _, out, _, _ = chain
    report = read_rows(out / "report.csv")
    embedding = read_rows(out / "embedding.csv")
    std_embedding = read_rows(out / "std_embedding.csv")
    labels, ranking = read_rows(out / "label_function.csv"), read_rows(out / "ranking.csv")
    preprocessed = read_rows(out / "preprocessed.csv")
    assert list(report) == list(embedding) == list(std_embedding) == list(labels)
    for pid, row in report.items():
        # embedding.csv and std_embedding.csv both name their columns coord_i
        for prefix, source in (("", embedding), ("std_", std_embedding)):
            for name, value in source[pid].items():
                if name != "point_id":
                    assert float(row[prefix + name]) == float(value), (pid, prefix + name)
        assert float(row["g_score"]) == float(labels[pid]["g_score"])
        assert row["f_score"] == ranking[pid]["f_score"]
        for name, cell in preprocessed[pid].items():
            if name != "point_id":
                assert (row[name] == "") == (cell == ""), (pid, name)
                assert cell == "" or float(row[name]) == float(cell), (pid, name)


def test_report_refuses_a_ranking_that_lost_a_row(chain, tmp_path, capsys):
    config, out, _, _ = chain
    work = shutil.copytree(out, tmp_path / "out")
    ranking = work / "ranking.csv"
    lines = ranking.read_text().splitlines(keepends=True)
    ranking.write_text("".join(lines[:-1]))
    (work / "report.csv").unlink()
    assert cli.main(["--config", str(config), "--out", str(work), "report"]) == 1
    err = capsys.readouterr().err
    assert str(ranking) in err and "rerun 'train'" in err
    assert not (work / "report.csv").exists()


def test_report_joins_a_reordered_ranking_by_point_id(chain, tmp_path):
    config, out, _, _ = chain
    work = shutil.copytree(out, tmp_path / "out")
    ranking = work / "ranking.csv"
    header, *rows = ranking.read_text().splitlines(keepends=True)
    ranking.write_text(header + "".join(reversed(rows)))
    assert cli.main(["--config", str(config), "--out", str(work), "report"]) == 0
    assert (work / "report.csv").read_bytes() == (out / "report.csv").read_bytes()


@pytest.mark.parametrize("text, message", [("{not json", "is not valid JSON"),
                                           ("[1, 2]", "must hold a JSON object, not a list")])
def test_malformed_config_file_exits_1(tmp_path, capsys, text, message):
    config = tmp_path / "config.json"
    config.write_text(text)
    assert cli.main(["--config", str(config), "--out", str(tmp_path / "out"), "synth"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config file {config}") and message in err


@pytest.mark.parametrize("text, message", [("{not json", "is not valid JSON"),
                                           ("[1, 2]", "must hold a JSON object, not a list"),
                                           ('{"weights": {"g": "heavy"}}', "must be a number")])
def test_malformed_schema_file_exits_1(chain, tmp_path, capsys, text, message):
    _, out, _, _ = chain
    work = shutil.copytree(out, tmp_path / "out")
    schema = tmp_path / "schema.json"
    schema.write_text(text)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(CONFIG, paths={"schema": str(schema)})))
    assert cli.main(["--config", str(config), "--out", str(work), "preprocess"]) == 1
    err = capsys.readouterr().err
    assert f"schema file {schema}" in err and message in err


def test_non_integer_folder_id_exits_1(chain, tmp_path, capsys):
    config, out, _, _ = chain
    work = shutil.copytree(out, tmp_path / "out")
    labels = tmp_path / "labels.csv"
    labels.write_text("folder_id,score\nx,5\n")
    args = ["--config", str(config), "--out", str(work), "pseudopoints", "import",
            "--labels", str(labels)]
    assert cli.main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {labels}: folder 'x': folder_id is not an integer")


def test_missing_new_points_file_exits_1(chain, tmp_path, capsys):
    config, out, _, _ = chain
    missing = tmp_path / "missing.csv"
    args = ["--config", str(config), "--out", str(out), "extend", "--new-points", str(missing)]
    assert cli.main(args) == 1
    assert capsys.readouterr().err == f"error: new points file not found: {missing}\n"


@pytest.mark.parametrize("stage", ["preprocess", "import", "extend"])
def test_csv_that_is_not_utf8_exits_1(chain, tmp_path, capsys, stage):
    _, out, _, _ = chain
    work = shutil.copytree(out, tmp_path / "out")
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"point_id,x\n\xff\xfe,1\n")
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(CONFIG, paths={"data": str(bad)})))
    args = {"preprocess": ["preprocess"],
            "import": ["pseudopoints", "import", "--labels", str(bad)],
            "extend": ["extend", "--new-points", str(bad)]}[stage]
    assert cli.main(["--config", str(config), "--out", str(work)] + args) == 1
    assert capsys.readouterr().err.startswith(f"error: {bad}: not UTF-8 text")


def test_validate_runs_the_ensemble_once(chain, tmp_path, monkeypatch):
    config, out, _, _ = chain
    work = shutil.copytree(out, tmp_path / "out")
    calls = []
    real = netens.ensemble_forward
    monkeypatch.setattr(netens, "ensemble_forward",
                        lambda e, X: calls.append(len(X)) or real(e, X))
    ws = pipeline.Workspace(work, pipeline.load_config(config, {"paths.out": str(work)}))
    pipeline.run_validate(ws)
    assert len(calls) == 1
