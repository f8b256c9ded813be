"""Self-tests of the benchmark: generators, tracer and output checks.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks                                   # noqa: E402
import probe as probing                         # noqa: E402
import tracer as tracing                        # noqa: E402
import workloads                                # noqa: E402
from gnncert import cli, save_votes             # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_votes_exact_targets_follow_the_cost_ladders(tmp_path):
    inputs = workloads.certify_votes_exact(3, tmp_path)
    adj = workloads._adjacency(inputs.n, [tuple(map(int, line.split())) for line in
                                          (tmp_path / "edges.txt").read_text().splitlines()])
    refused = [v for v in inputs.targets
               if workloads._subset_cost(adj, v)[1] and not workloads._field_shape(adj, v)[0]]
    assert len(inputs.targets) == sum(len(levels) for levels in workloads.VOTE_LADDERS)
    assert len(refused) == len(workloads.VOTE_LADDERS[1])


def test_probe_samples_while_the_body_runs_and_rescales():
    with probing.Probe() as probe:
        time.sleep(0.2)
    assert len(probe.samples) >= 2 and probe.cpu_s > 0
    slow = 2 * probing.REFERENCE_SAMPLE_S
    assert probing.reference_s(3.0, slow) == pytest.approx(1.5)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_byte_deterministic_per_seed(tmp_path, name):
    make = workloads.WORKLOADS[name]
    digests = []
    for run, seed in (("a", 3), ("b", 3), ("c", 4)):
        (tmp_path / run).mkdir()
        inputs = make(seed, tmp_path / run)
        digests.append(inputs.digests(tmp_path / run))
    assert digests[0] == digests[1]
    assert digests[0]["edges.txt"] != digests[2]["edges.txt"]


def test_scale_free_tree_is_a_tree_plus_closures_with_hubs():
    labels, edges = workloads.scale_free_tree(np.random.default_rng(1), n=500)
    assert len(edges) == 499 + round(0.05 * 499)
    assert (labels >= 0).all()
    assert np.bincount(np.array(edges).ravel()).max() > 10


def _tiny_inputs(tmp_path: Path) -> Path:
    rng = np.random.default_rng(7)
    labels, edges = workloads.two_block(rng, n=40, p_in=0.2, p_out=0.02)
    x = workloads._binary_features(rng, labels, d=8, hi=0.6, lo=0.1)
    workloads._graph_files(tmp_path, labels, edges, x)
    save_votes(tmp_path / "votes.csv",
               [(v, i, int(labels[v]) if rng.random() < 0.9 else 1 - int(labels[v]))
                for v in range(6) for i in range(60)])
    base = {"edges": "edges.txt", "features": "features.csv", "labels": "labels.csv",
            "model": "train/model.json", "epochs": 15, "hidden": 8, "lr": 0.01,
            "labeled_per_class": 5, "seed": 1, "p_del": 0.2, "p_abl": 0.5,
            "n0": 10, "n1": 30, "alpha": 0.05, "d_min": [1, 2], "k_rel": 0.2,
            "nodes": [0, 1, 2, 3, 4, 5]}
    configs = {
        "train.json": {**base, "out_dir": "train"},
        "gcn.json": base,
        "votes.json": {**base, "model": None, "votes": "votes.csv",
                       "bound_method": "exact-enumeration", "rho_max_scan": 2,
                       "subset_cap": 40},
    }
    for name, cfg in configs.items():
        (tmp_path / name).write_text(json.dumps(cfg))
    return tmp_path


def _cli(workdir: Path, args: list[str], monkeypatch) -> int:
    monkeypatch.chdir(workdir)
    return cli.main(args)


CALLS = [
    ("certify", "gcn.json", "results.csv"),
    ("certify", "votes.json", "results.csv"),
    ("derandomize", "gcn.json", "derandomized.csv"),
]


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    """Untraced and traced outputs, plus layer metrics, of each tiny CLI call."""
    workdir = _tiny_inputs(tmp_path_factory.mktemp("tiny"))
    with pytest.MonkeyPatch.context() as mp:
        assert _cli(workdir, ["train", "--config", "train.json"], mp) == 0
        runs = []
        for command, config, output in CALLS:
            snaps = []
            out = f"out-{command}-{config}"
            for traced in (False, True):
                tracer = tracing.Tracer() if traced else None
                if tracer:
                    tracer.install()
                try:
                    rc = _cli(workdir, [command, "--config", config, "--out", out], mp)
                finally:
                    if tracer:
                        tracer.uninstall()
                assert rc in (0, 3)
                snaps.append(checks.snapshot(workdir / out))
                shutil.rmtree(workdir / out)
            metrics = tracing.layer_metrics(tracer.summary(1.0), {})
            runs.append((command, config, output, snaps, metrics))
    return runs


def test_tracer_leaves_outputs_byte_identical(traced_runs):
    for command, config, output, (plain, traced), _ in traced_runs:
        assert output in plain
        assert checks.identical(f"{command} {config}", plain, traced) == []


def test_tracer_patches_names_where_they_are_looked_up(traced_runs):
    gcn_run, votes_run, derand_run = (m for *_, m in traced_runs)
    assert gcn_run["graph.receptive_field.calls"] == 6          # cli's own binding
    assert gcn_run["gcn.normalized_adjacency.calls"] == 40      # estimator's binding
    assert gcn_run["smoothing.sample.calls"] == 40
    assert "gcn.normalized_adjacency.calls" not in votes_run
    assert votes_run["bounds.delta_exact_ie.calls"] > 0
    assert votes_run["gcn.load_votes.rows"] == 360
    assert derand_run["gcn.forward_all.calls"] == derand_run["derandomize.representatives"] > 0
    assert cli.receptive_field.__module__ == "gnncert.graph"
    assert not hasattr(cli.receptive_field, "__wrapped__")      # uninstalled


def test_every_per_layer_metric_is_produced(traced_runs):
    produced = {f"{layer}.{fn}.calls"
                for layer, names in tracing.COUNTERS.items() for fn in names}
    for *_, metrics in traced_runs:
        produced |= set(metrics)
    wanted = {m["name"] for m in SPEC["per_layer"]} - {"trace.overhead_s", "gcn.train.s",
                                                      "gcn.train.epochs"}
    assert wanted <= produced, sorted(wanted - produced)


def test_train_metrics_come_from_the_traced_train_call(tmp_path, monkeypatch):
    workdir = _tiny_inputs(tmp_path)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert _cli(workdir, ["train", "--config", "train.json"], monkeypatch) == 0
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics({}, tracer.summary(1.0))
    assert metrics["gcn.train.epochs"] == 15
    assert metrics["gcn.train.s"] > 0


def test_tracer_skips_functions_the_package_no_longer_has(monkeypatch):
    monkeypatch.setitem(tracing.SPANS, "graph", ("load_graph", "no_such_function"))
    tracer = tracing.Tracer()
    try:
        assert tracer.install() == ["graph.no_such_function"]
    finally:
        tracer.uninstall()


def test_spans_opened_on_pool_threads_attach_to_the_root():
    from concurrent.futures import ThreadPoolExecutor
    import gnncert.graph as graph
    tracer = tracing.Tracer()
    tracer.install()
    try:
        g = graph.Graph.build(n=3, edges=[(0, 1), (1, 2)])
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(lambda v: cli.receptive_field(g, v, 2), range(3)))
    finally:
        tracer.uninstall()
    summary = tracer.summary(5.0)
    assert summary["graph.receptive_field.calls"] == 3
    assert summary["cli.self_s"] == pytest.approx(5.0 - summary["graph.receptive_field.s"])


RESULTS = """node_id,prediction,abstain,p_lower,p_upper,correct,radius_dmin_1,surface_dmin_1,error
1,0,0,0.9,0.05,1,2,4,
2,1,1,0.4,0.45,0,0,3,
3,,,,,,,,ResourceLimitError: too many subsets
"""


def test_output_check_accepts_the_reference_itself():
    assert checks.invariants("results.csv", RESULTS, [1, 2, 3]) == []
    assert checks.against_reference("results.csv", RESULTS, RESULTS) == []


@pytest.mark.parametrize("old,new,needle", [
    ("2,1,1,0.4,0.45,0,0,3,", "2,1,1,0.4,0.45,0,1,3,", "abstains with radius_dmin_1=1"),
    ("1,0,0,0.9,0.05,1,2,4,", "1,0,0,0.9,0.05,1,5,4,", "exceeds surface"),
    ("1,0,0,0.9,0.05,1,2,4,", "1,0,0,0.04,0.05,1,2,4,", "abstain=0 but"),
])
def test_output_check_rejects_a_corrupted_row(old, new, needle):
    corrupted = RESULTS.replace(old, new)
    bad = checks.invariants("results.csv", corrupted, [1, 2, 3])
    assert any(needle in msg for msg in bad), bad
    ref = checks.against_reference("results.csv", corrupted, RESULTS)
    assert ref and "node " + old.split(",")[0] in ref[0]


def test_reference_allows_a_refused_row_to_succeed():
    fixed = RESULTS.replace("3,,,,,,,,ResourceLimitError: too many subsets",
                            "3,0,0,0.8,0.1,1,1,2,")
    assert checks.against_reference("results.csv", fixed, RESULTS) == []
    assert checks.invariants("results.csv", fixed, [1, 2, 3]) == []


def test_radius_past_the_surface_must_equal_the_scan_bound():
    row = "1,0,0,0.9,0.05,1,3,1,"
    text = RESULTS.replace("1,0,0,0.9,0.05,1,2,4,", row)
    assert checks.invariants("results.csv", text, [1, 2, 3], rho_max_scan=3) == []
    assert checks.invariants("results.csv", text, [1, 2, 3], rho_max_scan=4)
    assert checks.invariants("results.csv", text, [1, 2, 3])


def test_derandomized_rows_are_checked():
    header = ("node_id,field_size,k,support,derandomized,reps,savings,prediction,"
              "radius,certified,p_class_0,p_class_1,error\n")
    good = header + "4,10,1,10,1,3,0.3,1,1,1,1/5,4/5,\n"
    assert checks.invariants("derandomized.csv", good, [4]) == []
    bad = good.replace("1/5,4/5", "1/5,3/5")
    assert any("sum to" in m for m in checks.invariants("derandomized.csv", bad, [4]))
