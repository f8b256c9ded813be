import base64
import csv
import ctypes
import importlib
import json
import math
import os
import platform
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from gnncert import (GnnModel, Graph, SmoothingConfig, derandomize, load_checkpoint,
                     receptive_field, receptive_fields, save_checkpoint, worst_case_curve)
from gnncert import cli
from gnncert.cli import main
from gnncert.estimator import radius

from conftest import two_block_graph


@pytest.fixture
def fixture_dir(tmp_path, rng):
    g = two_block_graph(rng, n=40, p_in=0.25, p_out=0.03, d=12, hi=0.7, lo=0.03)
    edge_lines = [f"{a} {b}" for a, b in g.edges if a < b]
    (tmp_path / "edges.txt").write_text("\n".join(edge_lines) + "\n")
    (tmp_path / "feats.csv").write_text(
        "\n".join(",".join(str(x) for x in row) for row in g.features) + "\n")
    (tmp_path / "labels.csv").write_text(
        "\n".join(str(int(x)) for x in g.labels) + "\n")
    return tmp_path


def csv_rows(path, reader=csv.DictReader):
    """Every row of a CSV file, as ``reader`` reads it; the file is closed after."""
    with open(path, newline="") as fh:
        return list(reader(fh))


def write_config(path, **overrides):
    cfg = {
        "edges": str(path / "edges.txt"),
        "features": str(path / "feats.csv"),
        "labels": str(path / "labels.csv"),
        "out_dir": str(path / "out"),
        "model": str(path / "out" / "model.json"),
        "epochs": 40,
        "patience": 40,
        "hidden": 8,
        "lr": 5e-3,
        "dropout": 0.2,
        "labeled_per_class": 8,
        "train_p_abl": 0.3,
        "p_abl": 0.5,
        "p_del": 0.2,
        "n0": 40,
        "n1": 80,
        "alpha": 0.05,
        "d_min": [0, 1],
        "k_rel": 0.15,
        "seed": 5,
    }
    cfg.update(overrides)
    cfg_path = path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    return cfg_path


def test_train_writes_checkpoint_and_log(fixture_dir, capsys):
    cfg = write_config(fixture_dir)
    assert main(["train", "--config", str(cfg)]) == 0
    out = fixture_dir / "out"
    assert (out / "model.json").exists()
    log = (out / "training_log.csv").read_text().splitlines()
    assert log[0] == "epoch,loss,val_acc"
    assert len(log) > 10
    best_val = max(float(line.split(",")[2]) for line in log[1:])
    assert best_val > 0.85          # the fixture is separable by construction
    payload = json.loads((out / "model.json").read_text())
    assert payload["splits"]["test"]


def test_train_reruns_byte_identical(fixture_dir):
    cfg = write_config(fixture_dir)
    assert main(["train", "--config", str(cfg)]) == 0
    first = (fixture_dir / "out" / "model.json").read_bytes()
    assert main(["train", "--config", str(cfg)]) == 0
    assert (fixture_dir / "out" / "model.json").read_bytes() == first


def test_train_without_labels_is_config_error(fixture_dir):
    cfg = write_config(fixture_dir, labels=None)
    assert main(["train", "--config", str(cfg)]) == 2


def test_certify_end_to_end(fixture_dir):
    cfg = write_config(fixture_dir)
    assert main(["train", "--config", str(cfg)]) == 0
    assert main(["certify", "--config", str(cfg)]) == 0
    out = fixture_dir / "out"
    rows = csv_rows(out / "results.csv")
    assert rows
    for row in rows:
        assert row["radius_dmin_0"] != "" and row["radius_dmin_1"] != ""
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["n1"] == 80
    assert "per_d_min" in summary
    # rerun is deterministic byte for byte
    first = (out / "results.csv").read_bytes()
    assert main(["certify", "--config", str(cfg)]) == 0
    assert (out / "results.csv").read_bytes() == first
    # runs are single-threaded: there is no --workers flag, argparse refuses it
    with pytest.raises(SystemExit) as exc:
        main(["certify", "--config", str(cfg), "--workers", "3"])
    assert exc.value.code == 2
    assert (out / "results.csv").read_bytes() == first


def test_certify_all_nodes_writes_flag_columns(fixture_dir):
    cfg = write_config(fixture_dir, nodes="all", flag_radii=[1, 2])
    assert main(["train", "--config", str(cfg)]) == 0
    assert main(["certify", "--config", str(cfg)]) == 0
    rows = csv_rows(fixture_dir / "out" / "results.csv")
    assert [int(r["node_id"]) for r in rows] == list(range(40))
    flags = [(dm, r) for dm in (0, 1) for r in (1, 2)]
    assert list(rows[0])[-5:] == [f"cert_dmin_{dm}_rho_{r}" for dm, r in flags] + ["error"]
    for row in rows:
        assert row["error"] == ""
        for dm, r in flags:
            assert int(row[f"cert_dmin_{dm}_rho_{r}"]) == \
                int(int(row[f"radius_dmin_{dm}"]) >= r)
    assert any(int(row["radius_dmin_1"]) >= 1 for row in rows)


def test_certify_tiny_sample_count_abstains(fixture_dir):
    # with 4 samples the one-sided bounds cross even on unanimous votes
    cfg = write_config(fixture_dir, n0=5, n1=4)
    assert main(["train", "--config", str(cfg)]) == 0
    assert main(["certify", "--config", str(cfg)]) == 0
    summary = json.loads((fixture_dir / "out" / "summary.json").read_text())
    assert summary["abstain_rate"] >= 0.9


def test_certify_from_votes_with_missing_samples_is_partial(fixture_dir):
    cfg = write_config(fixture_dir, n0=5, n1=5)
    assert main(["train", "--config", str(cfg)]) == 0
    payload = json.loads((fixture_dir / "out" / "model.json").read_text())
    test_nodes = payload["splits"]["test"]
    lines = ["node_id,sample_index,class"]
    for v in test_nodes[:-1]:                 # last node left voteless
        lines += [f"{v},{i},1" for i in range(10)]
    votes = fixture_dir / "votes.csv"
    votes.write_text("\n".join(lines) + "\n")
    # the classifier behind a vote file may be one layer deep, so k = 1 is accepted
    cfg2 = write_config(fixture_dir, votes=str(votes), n0=5, n1=5, k=1)
    assert main(["certify", "--config", str(cfg2)]) == 3
    rows = csv_rows(fixture_dir / "out" / "results.csv")
    errors = [r for r in rows if r["error"]]
    assert len(errors) == 1
    ok = [r for r in rows if not r["error"]]
    assert all(r["prediction"] == "1" for r in ok)


def test_vote_file_node_lacking_a_sample_fails_alone(fixture_dir):
    nodes = [0, 3, 7, 12]
    lines = ["node_id,sample_index,class"]
    for v in nodes:
        lines += [f"{v},{i},1" for i in range(10) if (v, i) != (7, 6)]
    votes = fixture_dir / "votes.csv"
    votes.write_text("\n".join(lines) + "\n")
    cfg = write_config(fixture_dir, votes=str(votes), nodes=nodes, n0=5, n1=5)
    assert main(["certify", "--config", str(cfg)]) == 3
    rows = {int(r["node_id"]): r
            for r in csv_rows(fixture_dir / "out" / "results.csv")}
    assert sorted(rows) == nodes
    assert rows[7]["error"].startswith(
        "InsufficientSamplesError: vote table lacks sample 6 for node 7")
    assert rows[7]["prediction"] == ""
    for v in (0, 3, 12):
        assert rows[v]["error"] == ""
        assert rows[v]["prediction"] == "1"
    summary = json.loads((fixture_dir / "out" / "summary.json").read_text())
    assert list(summary["failures"]) == ["7"]
    assert summary["certified"] == 3


def test_certify_path_budget_overflow_is_per_node(fixture_dir):
    cfg = write_config(fixture_dir, max_paths=1)
    assert main(["train", "--config", str(cfg)]) == 0
    assert main(["certify", "--config", str(cfg)]) == 3
    rows = csv_rows(fixture_dir / "out" / "results.csv")
    assert rows                                  # outputs still written
    assert all("ResourceLimitError" in r["error"] for r in rows)


def test_derandomize_fallback_and_exact(fixture_dir):
    cfg = write_config(fixture_dir, tau=1)
    assert main(["train", "--config", str(cfg)]) == 0
    assert main(["derandomize", "--config", str(cfg)]) == 0
    summary = json.loads(
        (fixture_dir / "out" / "derandomize_summary.json").read_text())
    assert summary["derandomized_ratio"] == 0.0

    cfg2 = write_config(fixture_dir, tau=200_000, k_rel=0.1)
    assert main(["derandomize", "--config", str(cfg2)]) == 0
    rows = csv_rows(fixture_dir / "out" / "derandomized.csv")
    done = [r for r in rows if r["derandomized"] == "1"]
    assert done
    for r in done:
        probs = [p for p in (r[f"p_class_{c}"] for c in range(2)) if p]
        assert probs
        num_den = [tuple(int(x) for x in p.split("/")) for p in probs]
        assert all(den > 0 for _, den in num_den)

    # keeping almost nothing makes the support tiny: nearly every node exact
    cfg3 = write_config(fixture_dir, tau=200_000, k_rel=0.02)
    assert main(["derandomize", "--config", str(cfg3)]) == 0
    summary = json.loads(
        (fixture_dir / "out" / "derandomize_summary.json").read_text())
    assert summary["derandomized_ratio"] >= 0.9


def test_derandomized_radius_is_the_largest_certified_budget(fixture_dir):
    cfg = write_config(fixture_dir, tau=200_000, k_rel=0.1)
    assert main(["train", "--config", str(cfg)]) == 0
    assert main(["derandomize", "--config", str(cfg)]) == 0
    rows = csv_rows(fixture_dir / "out" / "derandomized.csv")
    done = [r for r in rows if r["derandomized"] == "1"]
    assert done
    radii = []
    for r in done:
        probs = [Fraction(r[f"p_class_{c}"]) for c in range(2)]
        y_star = int(r["prediction"])
        p_star, p_tilde = probs[y_star], probs[1 - y_star]
        d, kk = int(r["field_size"]), int(r["k"])
        # the keep-k deletion bound in exact arithmetic
        deltas = {rho: 1 - Fraction(math.comb(d - rho, kk), math.comb(d, kk))
                  for rho in range(1, d - kk + 1)}
        margins = [rho for rho, delta in deltas.items() if p_star - delta > p_tilde + delta]
        assert int(r["radius"]) == max(margins, default=0)
        assert r["certified"] == str(int(max(margins, default=0) >= 1))
        radii.append(int(r["radius"]))
    assert len(set(radii)) > 1            # the column is not one constant


@pytest.mark.parametrize("d, probs, want", [
    (6, (Fraction(2, 3), Fraction(1, 3)), 0),                  # 2/3 - 1/6 == 1/3 + 1/6
    (10, (Fraction(7, 10), Fraction(3, 10)), 1),               # a tie at budget 2
    (5, (Fraction(3, 5), Fraction(1, 5), Fraction(1, 5)), 0),  # a tie at budget 1
])
def test_derandomized_radius_is_exact_at_a_tie(tmp_path, rng, monkeypatch, d, probs, want):
    # the centre of a star with d leaves keeps k = 1 of them, so delta(rho) is
    # 1 - C(d - rho, 1) / C(d, 1) = rho / d; where the margin ties it exactly,
    # the float 1.0 - (d - rho) / d rounds below rho / d and certified a budget
    (tmp_path / "edges.txt").write_text("".join(f"0 {i}\n" for i in range(1, d + 1)))
    (tmp_path / "feats.csv").write_text("\n".join(
        ",".join(str(int(i == j)) for j in range(d + 1)) for i in range(d + 1)) + "\n")
    model = GnnModel(w1=rng.normal(size=(d + 1, 4)), w2=rng.normal(size=(4, len(probs))),
                     token=rng.normal(size=d + 1))
    save_checkpoint(model, tmp_path / "model.json")
    monkeypatch.setattr(derandomize, "exact_label_probs", lambda *args: list(probs))
    cfg = write_config(tmp_path, labels=None, model=str(tmp_path / "model.json"),
                       nodes=[0], k_rel=1 / d)
    assert main(["derandomize", "--config", str(cfg)]) == 0
    (row,) = csv_rows(tmp_path / "out" / "derandomized.csv")
    assert (row["field_size"], row["k"], row["derandomized"]) == (str(d), "1", "1")
    assert [Fraction(row[f"p_class_{c}"]) for c in range(len(probs))] == list(probs)
    assert (row["radius"], row["certified"]) == (str(want), str(int(want >= 1)))


def test_derandomize_constant_classifier_is_zero_one(fixture_dir):
    cfg = write_config(fixture_dir)
    assert main(["train", "--config", str(cfg)]) == 0
    model, payload = load_checkpoint(fixture_dir / "out" / "model.json")
    model.w1 = np.zeros_like(model.w1)
    ck2 = fixture_dir / "constant.json"
    save_checkpoint(model, ck2, extra={"splits": payload["splits"]})
    cfg2 = write_config(fixture_dir, model=str(ck2), k_rel=0.1)
    assert main(["derandomize", "--config", str(cfg2)]) == 0
    rows = csv_rows(fixture_dir / "out" / "derandomized.csv")
    for r in rows:
        if r["derandomized"] == "1":
            assert r["p_class_0"].startswith("1/1") or r["p_class_0"] == "1"
            assert r["prediction"] == "0"


def test_report_single_and_pair(fixture_dir):
    cfg = write_config(fixture_dir)
    assert main(["train", "--config", str(cfg)]) == 0
    assert main(["certify", "--config", str(cfg)]) == 0
    res = fixture_dir / "out" / "results.csv"
    rep_out = fixture_dir / "report"
    assert main(["report", str(res), "--out", str(rep_out)]) == 0
    table = csv_rows(rep_out / "aucrc.csv", csv.reader)
    assert table[0] == ["results", "d_min", "aucrc", "aucrc_normalized"]
    assert len(table) >= 3      # header + two d_min rows

    # the report's curves and areas are the ones summary.json records
    summary = json.loads((fixture_dir / "out" / "summary.json").read_text())
    per_d_min = summary["per_d_min"]
    assert [row[1:] for row in table[1:]] == [
        [dm, repr(e["aucrc"]), repr(e["aucrc_normalized"])]
        for dm, e in per_d_min.items()]
    for dm, e in per_d_min.items():
        ratio = csv_rows(rep_out / f"certified_ratio_dmin_{dm}.csv", csv.reader)
        assert ratio[1:] == [[str(r), repr(x)]
                             for r, x in enumerate(e["certified_ratio"])]

    assert main(["report", str(res), str(res), "--out", str(rep_out)]) == 0
    ratio = csv_rows(rep_out / "certified_ratio_dmin_1.csv", csv.reader)
    assert len(ratio[0]) == 3   # radius + two result sets

    # a file whose radii are all 0 has the shorter curve: 0.0 past radius 0
    rows = csv_rows(res)
    for row in rows:
        row.update({k: "0" for k in row if k.startswith("radius_dmin_")})
    flat = fixture_dir / "flat.csv"
    with open(flat, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    assert main(["report", str(res), str(flat), "--out", str(rep_out)]) == 0
    for dm, e in per_d_min.items():
        ratio = csv_rows(rep_out / f"certified_ratio_dmin_{dm}.csv", csv.reader)
        assert [row[2] for row in ratio[1:]] == (
            ["1.0"] + ["0.0"] * (len(e["certified_ratio"]) - 1))


def test_report_rejects_mismatched_radius_columns(fixture_dir, capsys):
    cfg = write_config(fixture_dir, d_min=[1])
    assert main(["train", "--config", str(cfg)]) == 0
    assert main(["certify", "--config", str(cfg), "--out",
                 str(fixture_dir / "one")]) == 0
    cfg = write_config(fixture_dir, d_min=[2])
    assert main(["certify", "--config", str(cfg), "--out",
                 str(fixture_dir / "two")]) == 0
    second = str(fixture_dir / "two" / "results.csv")
    rep_out = fixture_dir / "report"
    capsys.readouterr()
    assert main(["report", str(fixture_dir / "one" / "results.csv"), second,
                 "--out", str(rep_out)]) == 2
    assert second in capsys.readouterr().err
    assert not rep_out.exists()


def test_report_without_inputs_fails(fixture_dir):
    assert main(["report", "--out", str(fixture_dir / "rep")]) == 2
    assert main(["report", str(fixture_dir / "missing.csv"),
                 "--out", str(fixture_dir / "rep")]) == 2


def test_failed_nodes_keep_node_order(fixture_dir):
    cfg = write_config(fixture_dir, k_rel=0.02)
    assert main(["train", "--config", str(cfg)]) == 0
    assert main(["paths", "--config", str(cfg)]) == 0
    rows = csv_rows(fixture_dir / "out" / "paths.csv")
    # a path budget below the median field fails about half of the nodes
    budget = sorted(int(r["simple_paths"]) for r in rows)[len(rows) // 2] - 1
    cfg = write_config(fixture_dir, k_rel=0.02, max_paths=budget)
    for command, name in (("paths", "paths.csv"), ("certify", "results.csv"),
                          ("derandomize", "derandomized.csv")):
        assert main([command, "--config", str(cfg)]) == 3
        header, *rows = csv_rows(fixture_dir / "out" / name, csv.reader)
        assert header[0] == "node_id" and header[-1] == "error", name
        # every row fills exactly the header's cells; a failure's are blank
        # between node_id and error
        assert all(len(r) == len(header) for r in rows), name
        ids = [int(r[0]) for r in rows]
        assert ids == sorted(ids), name
        failed = [r[-1] != "" for r in rows]
        assert any(failed) and not all(failed), name
        assert all(r[1:-1] == [""] * (len(header) - 2) for r, f in zip(rows, failed) if f), name
        # the failures are spread among the successes, not only at the end
        assert failed != sorted(failed), name


def test_paths_dump(fixture_dir):
    cfg = write_config(fixture_dir, nodes=[0, 1, 2, 3])
    assert main(["paths", "--config", str(cfg)]) == 0
    rows = csv_rows(fixture_dir / "out" / "paths.csv")
    assert [r["node_id"] for r in rows] == ["0", "1", "2", "3"]
    for r in rows:
        assert int(r["field_size"]) >= 1
        assert int(r["surface_dmin_0"]) == int(r["surface_dmin_1"]) + 1


@pytest.mark.parametrize("override,bad", [
    ({"nodes": [1.7, 2]}, "1.7"),
    ({"nodes": [True]}, "True"),
    ({"nodes": ["2"]}, "'2'"),
    ({"nodes": {"random": -2}}, "-2"),
    ({"nodes": {"random": 2.5}}, "2.5"),
    ({"nodes": [0], "d_min": [1.5]}, "1.5"),
    ({"nodes": [0], "d_min": [False]}, "False"),
    ({"nodes": [0], "d_min": []}, "d_min []"),
    ({"nodes": [0], "d_min": [1, 1]}, "[1, 1]"),
    ({"nodes": [0], "d_min": [-1]}, "[-1]"),
])
def test_bad_node_id_count_or_d_min_is_exit_two(fixture_dir, capsys, override, bad):
    cfg = write_config(fixture_dir, **override)
    assert main(["paths", "--config", str(cfg)]) == 2
    assert bad in capsys.readouterr().err
    assert not (fixture_dir / "out" / "paths.csv").exists()


def test_integer_valued_floats_are_node_ids(fixture_dir):
    cfg = write_config(fixture_dir, nodes=[3.0, 1], d_min=[1.0])
    assert main(["paths", "--config", str(cfg)]) == 0
    rows = csv_rows(fixture_dir / "out" / "paths.csv")
    assert [r["node_id"] for r in rows] == ["1", "3"]
    assert "surface_dmin_1" in rows[0]
    cfg = write_config(fixture_dir, nodes={"random": 2.0})
    assert main(["paths", "--config", str(cfg)]) == 0
    assert len(csv_rows(fixture_dir / "out" / "paths.csv")) == 2


@pytest.mark.parametrize("key,value", [
    ("d_min", 1), ("d_min", ["1"]), ("flag_radii", 2), ("flag_radii", [0.5]),
    ("max_paths", "x"), ("n0", "3"), ("subset_cap", "5"), ("k", 2.5),
    ("rho_max_scan", "3"), ("rho_max_scan", 1.5), ("p_del", "0.1"),
    ("alpha", True), ("lr", float("nan")), ("directed", 1), ("skip", "no"),
    ("bound_method", 3), ("edges", 5), ("votes", []),
    ("bound_method", "exact"), ("rho_max_scan", 0), ("rho_max_scan", -2),
    ("flag_radii", [1, 1, -3]), ("flag_radii", [2, 2]), ("flag_radii", [-1]),
    ("k", 0), ("labeled_per_class", -1), ("labeled_per_class", 0),
])
def test_wrong_json_type_is_exit_two_naming_the_key(fixture_dir, capsys, key, value):
    cfg = write_config(fixture_dir, **{key: value})
    assert main(["paths", "--config", str(cfg)]) == 2
    assert key in capsys.readouterr().err
    assert not (fixture_dir / "out" / "paths.csv").exists()


def test_right_json_types_are_accepted(fixture_dir):
    # ints stand for floats, integer-valued floats for ints, null for an unset
    # optional integer; the ignored workers key stays accepted
    cfg = write_config(fixture_dir, nodes=[0, 1], p_del=0, k_rel=1, max_paths=5000.0,
                       rho_max_scan=None, flag_radii=[1, 2.0], workers=1,
                       directed=False)
    assert main(["paths", "--config", str(cfg)]) == 0


@pytest.mark.parametrize("alpha", [0, 1, 1.5])
def test_alpha_outside_zero_one_is_exit_two_before_any_read(fixture_dir, capsys, alpha):
    # an alpha of 1 or more certifies with a lower bound above the point
    # estimate; alpha 0 would fail in clopper_pearson only after sampling
    cfg = write_config(fixture_dir, alpha=alpha)
    for command in ("train", "certify", "derandomize", "paths"):
        assert main([command, "--config", str(cfg)]) == 2
        assert f"alpha {alpha} outside (0, 1)" in capsys.readouterr().err
        assert not (fixture_dir / "out").exists()


def test_bad_config_is_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"edges\": \"nope.txt\", \"mystery\": 1}")
    assert main(["certify", "--config", str(bad)]) == 2
    bad2 = tmp_path / "bad2.json"
    bad2.write_text("not json")
    assert main(["train", "--config", str(bad2)]) == 2
    # valid JSON that is no object: a list, null, a number, a string
    for text in ("[]", "null", "1", '"x"'):
        bad2.write_text(text)
        assert main(["train", "--config", str(bad2)]) == 2
        assert "is not a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [("k_rel", -0.5), ("k_rel", 1.5), ("tau", 0),
                                       ("k", 1), ("k", 0)])
def test_bad_k_rel_or_tau_is_exit_two(fixture_dir, capsys, key, value):
    # the model-backed commands; a k below the GCN's two layers would leave
    # nodes that move the prediction out of the candidates
    cfg = write_config(fixture_dir, **{key: value})
    for command in ("derandomize", "certify"):
        assert main([command, "--config", str(cfg)]) == 2
        assert f"{key} {value}" in capsys.readouterr().err
        assert not (fixture_dir / "out").exists()


@pytest.mark.parametrize("key", ["max_paths", "subset_cap", "max_ie_terms", "hidden"])
@pytest.mark.parametrize("value", [0, -1])
def test_budget_or_hidden_below_one_is_exit_two(fixture_dir, capsys, key, value):
    # without the check, max_paths 0 failed every node, hidden 0 trained a
    # constant classifier and a negative hidden ended in a numpy error
    cfg = write_config(fixture_dir, **{key: value})
    for command in ("train", "certify", "derandomize", "paths"):
        assert main([command, "--config", str(cfg)]) == 2
        assert f"{key} {value} must be >= 1" in capsys.readouterr().err
        assert not (fixture_dir / "out").exists()


@pytest.mark.parametrize("key", ["n0", "n1"])
@pytest.mark.parametrize("votes", [False, True])
def test_bad_sample_count_is_exit_two(fixture_dir, capsys, key, votes):
    extra = {}
    if votes:
        (fixture_dir / "votes.csv").write_text("0,0,1\n0,1,1\n")
        extra = {"votes": str(fixture_dir / "votes.csv"), "nodes": [0]}
    cfg = write_config(fixture_dir, **{key: 0}, **extra)
    assert main(["certify", "--config", str(cfg)]) == 2
    assert key in capsys.readouterr().err
    assert not (fixture_dir / "out" / "results.csv").exists()


def test_negative_vote_class_is_exit_two(fixture_dir, capsys):
    (fixture_dir / "votes.csv").write_text("0,0,1\n0,1,-1\n")
    cfg = write_config(fixture_dir, votes=str(fixture_dir / "votes.csv"), nodes=[0],
                       n0=1, n1=1)
    assert main(["certify", "--config", str(cfg)]) == 2
    assert "line 2: negative" in capsys.readouterr().err


EXIT_TWO = [
    # (arguments, config overrides, files written first, message on stderr);
    # "{d}" is the fixture directory and "{cfg}" a config with the overrides
    ("train --config {d}/missing.json", {}, {}, "cannot read config {d}/missing.json"),
    ("train --config {cfg}", {"p_del": 1.5}, {}, "probability 1.5 outside [0, 1]"),
    ("paths --config {cfg}", {"edges": ""}, {}, "config must name an edge file"),
    ("paths --config {cfg}", {"features": "{d}/missing.csv"}, {},
     "features file not found: {d}/missing.csv"),
    ("certify --config {cfg}", {"votes": "{d}/missing.csv"}, {},
     "vote file not found: {d}/missing.csv"),
    ("paths --config {cfg}", {"nodes": [0, 40]}, {}, "node selection out of range: [40]"),
    ("paths --config {cfg}", {}, {}, "nodes='test' needs a checkpoint with recorded splits"),
    ("paths --config {cfg}", {"nodes": "some"}, {}, "bad node selection 'some'"),
    ("certify --config {cfg}", {"model": None}, {},
     "certify needs either a model checkpoint or a vote file"),
    ("derandomize --config {cfg}", {"model": None}, {}, "derandomize needs a model checkpoint"),
    ("report {d}/r.csv --out {d}/rep", {}, {"r.csv": "node_id,prediction\n"},
     "results file {d}/r.csv has no usable rows"),
    ("report {d}/r.csv --out {d}/rep", {}, {"r.csv": "node_id,radius_dmin_0\n0,1\n"},
     "results file {d}/r.csv is malformed: KeyError: 'prediction'"),
    ("report {d}/r.csv --out {d}/rep", {},
     {"r.csv": "node_id,prediction,abstain,p_lower,p_upper,correct\n0,1,0,0.9,1.0,1\n"},
     "no radius columns found in the results files"),
    ("paths --config {cfg}", {}, {"feats.csv": "1,0\n0,1\n"},
     "{d}/feats.csv: 2 feature rows but edge file references node"),
    ("paths --config {cfg}", {"features": None}, {"labels.csv": "0\n1\n"},
     "{d}/labels.csv: 2 labels but graph has 40 nodes"),
    ("train --config {cfg}", {"epochs": 0}, {}, "epochs must be >= 1"),
    ("train --config {cfg}", {"dropout": 1.0}, {}, "dropout must be in [0, 1)"),
    ("train --config {cfg}", {"lr": -1}, {}, "lr must be > 0, got -1"),
    ("train --config {cfg}", {"weight_decay": -3}, {}, "weight_decay must be >= 0, got -3"),
    ("train --config {cfg}", {"patience": -5}, {}, "patience must be >= 1, got -5"),
]


@pytest.mark.parametrize("args,overrides,files,message", EXIT_TWO)
def test_each_config_or_input_fault_is_exit_two_naming_it(fixture_dir, capsys, args,
                                                         overrides, files, message):
    d = str(fixture_dir)
    for name, text in files.items():
        (fixture_dir / name).write_text(text)
    overrides = {k: v.format(d=d) if isinstance(v, str) else v for k, v in overrides.items()}
    cfg = write_config(fixture_dir, **overrides)
    assert main(args.format(d=d, cfg=cfg).split()) == 2
    assert message.format(d=d) in capsys.readouterr().err
    assert not (fixture_dir / "out").exists() and not (fixture_dir / "rep").exists()


def test_missing_model_file_is_named(fixture_dir, capsys):
    missing = fixture_dir / "out" / "model.json"
    cfg = write_config(fixture_dir, nodes=[0, 1])
    for command in ("certify", "derandomize"):
        assert main([command, "--config", str(cfg)]) == 2
        assert f"model file not found: {missing}" in capsys.readouterr().err
    # a config may name its model before it is trained: paths and a
    # vote-backed certify do not need it
    assert main(["paths", "--config", str(cfg)]) == 0
    (fixture_dir / "votes.csv").write_text("".join(f"{v},{i},1\n" for v in (0, 1)
                                                   for i in range(4)))
    cfg = write_config(fixture_dir, nodes=[0, 1], n0=2, n1=2,
                       votes=str(fixture_dir / "votes.csv"))
    assert main(["certify", "--config", str(cfg)]) == 0


def test_a_run_that_selects_no_test_split_never_opens_the_checkpoint(fixture_dir):
    broken = fixture_dir / "model.json"
    broken.write_text("{not json")
    (fixture_dir / "votes.csv").write_text("".join(f"{v},{i},1\n" for v in (0, 1)
                                                   for i in range(4)))
    for command, extra, result in (("paths", {}, "paths.csv"),
                                   ("certify", {"votes": str(fixture_dir / "votes.csv"),
                                                "n0": 2, "n1": 2}, "results.csv")):
        outputs = []
        for model in (str(broken), None):
            cfg = write_config(fixture_dir, model=model, nodes=[0, 1], **extra)
            assert main([command, "--config", str(cfg)]) == 0
            outputs.append((fixture_dir / "out" / result).read_bytes())
        assert outputs[0] == outputs[1], command


@pytest.mark.parametrize("extra", [{}, {"splits": {"labeled": [0]}}, {"splits": [0, 1]},
                                   {"splits": {"test": 3}}])
def test_test_nodes_need_a_test_split_in_the_checkpoint(fixture_dir, capsys, rng, extra):
    path = fixture_dir / "model.json"
    save_checkpoint(GnnModel(w1=rng.normal(size=(12, 8)), w2=rng.normal(size=(8, 2)),
                             token=rng.normal(size=12)), path, extra=extra)
    cfg = write_config(fixture_dir, model=str(path))
    for command in ("certify", "derandomize", "paths"):
        assert main([command, "--config", str(cfg)]) == 2
        assert "nodes='test' needs a checkpoint with recorded splits" in capsys.readouterr().err


def test_derandomize_names_a_broken_checkpoint_before_a_missing_edge_file(fixture_dir,
                                                                           capsys):
    broken = fixture_dir / "model.json"
    broken.write_text("{not json")
    cfg = write_config(fixture_dir, model=str(broken), nodes=[0, 1],
                       edges=str(fixture_dir / "missing.txt"))
    assert main(["derandomize", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"error: checkpoint {broken}" in err and "is not valid JSON" in err
    assert "missing.txt" not in err


def test_a_skip_checkpoint_with_d_min_0_is_refused_before_any_input_is_read(fixture_dir,
                                                                           capsys, rng):
    # the skip path reads the target's own features unablated, but the
    # d_min 0 bound lets the target through only when it is not ablated
    ckpt = fixture_dir / "skip.json"
    save_checkpoint(GnnModel(w1=rng.normal(size=(12, 4)), w2=rng.normal(size=(4, 2)),
                             token=rng.normal(size=12), skip=True), ckpt)
    cfg = write_config(fixture_dir, model=str(ckpt), nodes=[0, 1], skip=False,
                       edges=str(fixture_dir / "missing.txt"))
    assert main(["certify", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"d_min [0, 1] holds 0, but checkpoint {ckpt} has skip true" in err
    assert not (fixture_dir / "out").exists()
    # d_min >= 1 is sound with it; a vote-file certify is the user's contract
    cfg = write_config(fixture_dir, model=str(ckpt), nodes=[0, 1], d_min=[1])
    assert main(["certify", "--config", str(cfg)]) == 0
    (fixture_dir / "votes.csv").write_text("".join(f"{v},{i},1\n" for v in (0, 1)
                                                   for i in range(4)))
    cfg = write_config(fixture_dir, model=str(ckpt), nodes=[0, 1], n0=2, n1=2,
                       votes=str(fixture_dir / "votes.csv"))
    assert main(["certify", "--config", str(cfg)]) == 0


def test_a_node_without_votes_reports_that_before_its_path_budget(fixture_dir):
    # every field is over max_paths 1; node 3 also lacks its last sample
    (fixture_dir / "votes.csv").write_text("".join(
        f"{v},{i},1\n" for v in (0, 1, 3, 5) for i in range(4 - (v == 3))))
    cfg = write_config(fixture_dir, nodes=[0, 1, 3, 5], n0=2, n1=2, max_paths=1,
                       votes=str(fixture_dir / "votes.csv"))
    assert main(["certify", "--config", str(cfg)]) == 3
    rows = csv_rows(fixture_dir / "out" / "results.csv")
    assert [r["node_id"] for r in rows] == ["0", "1", "3", "5"]
    errors = [r["error"].split(":")[0] for r in rows]
    assert errors == ["ResourceLimitError", "ResourceLimitError",
                      "InsufficientSamplesError", "ResourceLimitError"]


def _drop(key):
    def edit(payload):
        del payload[key]
    return edit


def _set(key, field, value):
    return lambda payload: payload[key].__setitem__(field, value)


def _weight(key, shape):
    """Replace ``key``'s weight with a well-formed array of ``shape``."""
    return lambda payload: payload.__setitem__(key, {
        "shape": list(shape),
        "float64_le": base64.b64encode(np.ones(shape, dtype="<f8").tobytes()).decode()})


@pytest.mark.parametrize("edit,message", [
    (_drop("w1"), "has no 'w1'"),
    (_drop("w2"), "has no 'w2'"),
    (_drop("token"), "has no 'token'"),
    (_drop("skip"), "has no 'skip'"),
    (lambda payload: payload.__setitem__("skip", "false"),
     "'skip' is \"false\", not true or false"),
    (lambda payload: payload.__setitem__("skip", 0), "'skip' is 0, not true or false"),
    (_weight("w2", (5, 2)), "'w2' has 5 rows, but 'w1' has 8 columns"),
    (_weight("token", (5,)), "'token' has 5 entries, but 'w1' has 12 rows"),
    (_set("w2", "float64_le", "AAAA*AAA"), "'w2' is not valid base64"),
    (_set("w1", "float64_le", "AAAAAAAAAA"), "'w1' is not valid base64"),
    (_set("w1", "float64_le", "AAAA\u00e9AAA"), "'w1' is not valid base64"),
    (_set("token", "float64_le", 5), "'token' is not valid base64"),
    (_set("w1", "float64_le", "AAAAAAAAAAA="),
     "'w1' holds 8 bytes, but shape [12, 8] takes 768"),
    (_set("token", "shape", [13]), "'token' holds 96 bytes, but shape [13] takes 104"),
    (_set("w1", "shape", [12, 8, 1]), "'w1' has shape [12, 8, 1], not 2 sizes >= 0"),
    (lambda payload: payload.__setitem__("w1", np.zeros((12, 8)).tolist()),
     "'w1' is a list of numbers, the weight form of an older version; "
     "re-run `gnncert train`"),
    (lambda payload: "{not json", "is not valid JSON"),
    (lambda payload: json.dumps([payload]), "is not a JSON object"),
    (lambda payload: payload.__setitem__("w1", {"shape": [12, 8]}),
     "'w1' is not {\"shape\": [...], \"float64_le\": \"...\"}"),
    (_set("token", "dtype", "float64"),
     "'token' is not {\"shape\": [...], \"float64_le\": \"...\"}"),
])
def test_malformed_checkpoint_is_exit_two_naming_file_and_key(fixture_dir, capsys, rng,
                                                              edit, message):
    path = fixture_dir / "model.json"
    model = GnnModel(w1=rng.normal(size=(12, 8)), w2=rng.normal(size=(8, 2)),
                     token=rng.normal(size=12))
    save_checkpoint(model, path, extra={"splits": {"test": [0, 1]}})
    payload = json.loads(path.read_text())
    text = edit(payload)        # a whole new text, or None after editing the payload
    path.write_text(text if isinstance(text, str) else json.dumps(payload))
    cfg = write_config(fixture_dir, model=str(path))
    for command in ("certify", "derandomize"):
        assert main([command, "--config", str(cfg)]) == 2
        assert f"error: checkpoint {path}" in (err := capsys.readouterr().err)
        assert message in err
        assert not (fixture_dir / "out" / "results.csv").exists()


def _cap_fixture(tmp_path, tally_ones_at_4, subset_cap):
    """Node 0 sees a tree (0-1, 0-2, 1-3), node 4 the triangle 4-5-6 plus 4-7.

    Both nodes vote class 1 throughout, except that node 4 votes class 1 in
    only ``tally_ones_at_4`` of its 200 tally samples and class 0 in the rest.
    """
    (tmp_path / "edges.txt").write_text("0 1\n0 2\n1 3\n4 5\n5 6\n6 4\n4 7\n")
    n0, n1 = 20, 200
    lines = ["node_id,sample_index,class"]
    lines += [f"0,{i},1" for i in range(n0 + n1)]
    lines += [f"4,{i},{int(i < n0 + tally_ones_at_4)}" for i in range(n0 + n1)]
    (tmp_path / "votes.csv").write_text("\n".join(lines) + "\n")
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "edges": str(tmp_path / "edges.txt"), "votes": str(tmp_path / "votes.csv"),
        "out_dir": str(tmp_path / "out"), "nodes": [0, 4], "n0": n0, "n1": n1,
        "alpha": 0.05, "p_del": 0.5, "p_abl": 0.8, "d_min": [1],
        "bound_method": "exact-enumeration", "subset_cap": subset_cap,
    }))
    return cfg


def _result_rows(tmp_path):
    return {r["node_id"]: r for r in csv_rows(tmp_path / "out" / "results.csv")}


def test_exact_enumeration_cap_refuses_only_fields_with_a_cycle(tmp_path):
    # node 4's D* = 0.2323 falls at budget 2 between the exact value 0.23 of
    # {5, 6} (the top and the greedy set) and the multiplicative bound
    # 0.2344, so only enumerating the C(3, 2) = 3 pairs decides budget 2,
    # and they exceed the cap
    cfg = _cap_fixture(tmp_path, tally_ones_at_4=159, subset_cap=1)
    assert main(["certify", "--config", str(cfg)]) == 3
    rows = _result_rows(tmp_path)
    assert rows["0"]["error"] == ""
    assert int(rows["0"]["radius_dmin_1"]) >= 1
    assert "ResourceLimitError" in rows["4"]["error"]


def test_exact_enumeration_cap_binds_only_where_bound_and_witness_do_not_decide(tmp_path):
    # with every tally vote on class 1 the multiplicative bound certifies
    # node 4's whole surface: nothing is enumerated, so the cap never binds
    cfg = _cap_fixture(tmp_path, tally_ones_at_4=200, subset_cap=1)
    assert main(["certify", "--config", str(cfg)]) == 0
    row = _result_rows(tmp_path)["4"]
    assert row["error"] == ""
    g = Graph.build(n=8, edges=[(0, 1), (0, 2), (1, 3), (4, 5), (5, 6), (6, 4), (4, 7)])
    full = worst_case_curve(receptive_field(g, 4, 2), 1,
                            SmoothingConfig(p_del=0.5, p_abl=0.8),
                            method="exact-enumeration", subset_cap=100)
    assert int(row["radius_dmin_1"]) == radius(
        float(row["p_lower"]), float(row["p_upper"]), (b.value for b in full)) == 3


def test_abstaining_node_builds_no_curve_and_is_not_refused(tmp_path):
    # an even tally split abstains before any curve is built, so the cap that
    # would refuse node 4's enumeration never comes into play
    cfg = _cap_fixture(tmp_path, tally_ones_at_4=100, subset_cap=1)
    assert main(["certify", "--config", str(cfg)]) == 0
    row = _result_rows(tmp_path)["4"]
    assert (row["abstain"], row["radius_dmin_1"], row["error"]) == ("1", "0", "")


def test_certify_never_builds_edges_within(fixture_dir, monkeypatch):
    from gnncert import cli
    fields = []

    def recording(*args, **kwargs):
        for rf in receptive_fields(*args, **kwargs):
            fields.append(rf)
            yield rf

    cfg = write_config(fixture_dir, bound_method="exact-enumeration")
    assert main(["train", "--config", str(cfg)]) == 0
    monkeypatch.setattr(cli, "receptive_fields", recording)
    assert main(["certify", "--config", str(cfg)]) == 0
    assert fields and all("edges_within" not in rf.__dict__ for rf in fields)
    # inclusion-exclusion reads coins off the path table, never the tuple paths
    assert all("paths" not in rf.__dict__ for rf in fields)
    assert any("path_coins" in rf.__dict__ and rf.tree_order is None for rf in fields)


def test_second_witness_decides_a_budget_the_cap_refused(tmp_path, monkeypatch):
    # certify-votes-exact seed 7, node 97, d_min 2, budget 3: D* = 0.35611 lies
    # between the top-3 set's 0.35487 and the multiplicative 0.37935, and
    # C(31, 3) = 4495 subsets exceed the cap of 2000; the greedy set's 0.37145
    # fails, which decides the budget without enumerating
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    workloads = importlib.import_module("workloads")
    inputs = workloads.WORKLOADS["certify-votes-exact"](7, tmp_path)
    run = json.loads((tmp_path / inputs.run_config).read_text())
    (tmp_path / inputs.run_config).write_text(json.dumps({**run, "nodes": [97]}))
    monkeypatch.chdir(tmp_path)
    assert main([inputs.command, "--config", inputs.run_config]) == 0
    row = _result_rows(tmp_path)["97"]
    assert (row["error"], row["radius_dmin_1"], row["radius_dmin_2"],
            row["surface_dmin_2"]) == ("", "1", "2", "31")


# ---------------------------------------------------------------------------
# allocator policy: cli.main keeps freed heap memory for reuse

SRC = Path(__file__).resolve().parent.parent / "src"


def _fresh_python(script, *args, cwd=None):
    """Run ``script`` in a new interpreter with no ``MALLOC_*`` tuning set."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


# one "epoch": four live 3 MB arrays, then all freed; prints faults per epoch
_EPOCH_FAULTS = """
import resource, sys
import numpy as np
from gnncert import cli
if sys.argv[1] == "policy":
    cli._keep_freed_memory()
n = (3 << 20) // 8
def epoch():
    a = np.ones(n); b = a * 2.0; c = a + b; d = c * b
    return float(d[-1])
epoch()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(10):
    epoch()
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 10)
"""


def _huge_pages_always():
    try:
        return "[always]" in Path("/sys/kernel/mm/transparent_hugepage/enabled").read_text()
    except OSError:
        return False


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt policy is glibc's")
@pytest.mark.skipif(_huge_pages_always(), reason="huge pages fault 2 MB at a time")
def test_freed_arrays_are_reused_without_faulting():
    plain = float(_fresh_python(_EPOCH_FAULTS, "plain"))
    policy = float(_fresh_python(_EPOCH_FAULTS, "policy"))
    # glibc's default trims the freed 12 MB each epoch and faults it back in
    # (3,072 pages); with the policy the heap keeps it
    assert plain > 1000
    assert policy < 50


def _refusing_libc(calls):
    def mallopt(param, value):
        calls.append((param, value))
        return 0
    return types.SimpleNamespace(mallopt=mallopt)


def _no_libc(name):
    raise OSError("no such library")


@pytest.mark.parametrize("stand_in", ["missing", "no mallopt", "refuses"])
def test_allocator_policy_is_quiet_without_mallopt(fixture_dir, monkeypatch, capsys, stand_in):
    calls = []
    libc = {"missing": _no_libc,
            "no mallopt": lambda name: types.SimpleNamespace(),
            "refuses": lambda name: _refusing_libc(calls)}[stand_in]
    monkeypatch.setattr(ctypes, "CDLL", libc)
    cli._keep_freed_memory()
    assert capsys.readouterr() == ("", "")
    # a refused mmap threshold leaves the trim threshold alone too
    assert calls == ([(-3, 32 << 20)] if stand_in == "refuses" else [])
    cfg = write_config(fixture_dir, nodes=[0, 1])
    assert main(["paths", "--config", str(cfg)]) == 0
    assert (fixture_dir / "out" / "paths.csv").exists()


# train, certify from the model, certify from a vote file, derandomize
_ALL_COMMANDS = """
import json, sys
from gnncert import cli
if sys.argv[1] == "plain":
    cli._keep_freed_memory = lambda: None
for args in json.loads(sys.argv[2]):
    assert cli.main(args) == 0, args
"""


def test_allocator_policy_moves_no_output_byte(fixture_dir):
    runs = fixture_dir / "runs"
    write_config(fixture_dir, model=str(runs / "train" / "model.json"),
                 tau=200_000, k_rel=0.1).rename(fixture_dir / "model.json")
    lines = ["node_id,sample_index,class"]
    lines += [f"{v},{i},{(v * i) % 3 % 2}" for v in (0, 3, 7, 12) for i in range(10)]
    (fixture_dir / "votes.csv").write_text("\n".join(lines) + "\n")
    write_config(fixture_dir, votes=str(fixture_dir / "votes.csv"), nodes=[0, 3, 7, 12],
                 n0=5, n1=5).rename(fixture_dir / "votes.json")
    commands = [[cmd, "--config", str(fixture_dir / cfg), "--out", str(runs / out)]
                for cmd, cfg, out in [("train", "model.json", "train"),
                                      ("certify", "model.json", "certify"),
                                      ("certify", "votes.json", "votes"),
                                      ("derandomize", "model.json", "derandomize")]]
    outputs = {}
    for side in ("policy", "plain"):
        _fresh_python(_ALL_COMMANDS, side, json.dumps(commands), cwd=fixture_dir)
        outputs[side] = {str(f.relative_to(runs)): f.read_bytes()
                         for f in sorted(runs.rglob("*")) if f.is_file()}
        runs.rename(fixture_dir / side)
    assert sorted(outputs["policy"]) == sorted(
        f"{out}/{name}" for out, names in [
            ("train", ["model.json", "training_log.csv"]),
            ("certify", ["results.csv", "summary.json"]),
            ("votes", ["results.csv", "summary.json"]),
            ("derandomize", ["derandomize_summary.json", "derandomized.csv"])]
        for name in names)
    assert outputs["policy"] == outputs["plain"]
