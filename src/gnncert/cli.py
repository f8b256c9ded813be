"""Command-line orchestration: train, certify, derandomize, report, paths.

One JSON config drives a run; every output embeds the resolved config so a
run is reconstructible from its artifacts alone.  Outputs are deterministic
byte-for-byte for a fixed config and seed: rows are sorted by node id and no
timestamps are written.  Per-node failures (path budget, subset caps,
missing votes) are recorded in the output and do not abort the batch.

Memory policy: a run that trains or scores a model first tells glibc's
allocator to keep freed memory for reuse (``_keep_freed_memory``, called
from ``cmd_train`` and from ``_model``, the prologue of ``certify`` from a
model and of ``derandomize``).  Every smoothed sample and every training
epoch allocates and frees arrays of a few MB.  By default glibc serves such
arrays with ``mmap`` or trims them off the heap when freed, so the next pass
faults the same pages in again; in a paper-scale ``certify`` that was about
half of the CPU time (README, "Performance").  The policy sets
``M_MMAP_THRESHOLD`` to 32 MB (glibc's 64-bit maximum) and
``M_TRIM_THRESHOLD`` to 64 MB.  Both are needed: setting either one turns
off glibc's dynamic thresholds, so the other stays at 128 KB.  ``certify``
from a vote file, ``report`` and ``paths`` keep glibc's defaults: they have
no such churn, and the policy raised a paper-scale vote-file ``certify``'s
peak by holding freed parse memory on the heap.  The policy lasts for the
life of the process, so an in-process caller of ``main`` (the tests, a
notebook) keeps it afterwards.  Importing ``gnncert`` changes nothing;
library users get the same effect by starting Python with
``MALLOC_MMAP_THRESHOLD_=33554432 MALLOC_TRIM_THRESHOLD_=67108864`` (both
variables).  Where ``mallopt`` is missing or refuses (not glibc), nothing
changes.  No output depends on it.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import functools
import json
import math
import sys
from dataclasses import dataclass, asdict, field, fields
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import bounds, derandomize, estimator, gcn, smoothing
from .errors import (ConfigError, EnumerationRefused, InsufficientSamplesError,
                     ResourceLimitError)
# ``receptive_field`` stays bound here: perfbench's tracer self-test calls it through ``cli``
from .graph import DEFAULT_MAX_PATHS, load_graph, receptive_field, receptive_fields  # noqa: F401

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PARTIAL = 3


@dataclass
class RunConfig:
    """Resolved configuration for one run; serialized into every output."""

    edges: str = ""
    features: str | None = None
    labels: str | None = None
    directed: bool = False
    out_dir: str = "out"
    model: str | None = None
    votes: str | None = None
    k: int = 2
    p_del: float = 0.0
    p_abl: float = 0.0
    train_p_del: float = gcn.TrainConfig.p_del
    train_p_abl: float = gcn.TrainConfig.p_abl
    lr: float = gcn.TrainConfig.lr
    weight_decay: float = gcn.TrainConfig.weight_decay
    epochs: int = gcn.TrainConfig.epochs
    patience: int = gcn.TrainConfig.patience
    dropout: float = gcn.TrainConfig.dropout
    hidden: int = gcn.TrainConfig.hidden
    labeled_per_class: int = 20
    n0: int = 1000
    n1: int = 3000
    alpha: float = 0.01
    d_min: list = field(default_factory=lambda: [1])
    bound_method: str = "multiplicative"
    rho_max_scan: int | None = None
    flag_radii: list = field(default_factory=list)
    k_rel: float = 0.1
    tau: int = derandomize.DEFAULT_TAU
    seed: int = 0
    skip: bool = False
    nodes: object = "test"
    max_paths: int = DEFAULT_MAX_PATHS
    subset_cap: int = bounds.DEFAULT_SUBSET_CAP
    max_ie_terms: int = bounds.DEFAULT_MAX_IE_TERMS
    workers: int = 1        # accepted for old configs; runs are single-threaded

    @classmethod
    def from_file(cls, path: str, overrides: dict) -> "RunConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise ConfigError(f"config {path} is not a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        raw.update({k: v for k, v in overrides.items() if v is not None})
        cfg = cls(**raw)
        for f in fields(cls):
            setattr(cfg, f.name, _typed(f.name, f.type, getattr(cfg, f.name)))
        for p in (cfg.p_del, cfg.p_abl, cfg.train_p_del, cfg.train_p_abl):
            if not 0.0 <= p <= 1.0:
                raise ConfigError(f"probability {p} outside [0, 1]")
        if not 0.0 <= cfg.k_rel <= 1.0:
            raise ConfigError(f"k_rel {cfg.k_rel} outside [0, 1]")
        if not 0.0 < cfg.alpha < 1.0:
            raise ConfigError(f"alpha {cfg.alpha} outside (0, 1)")
        for name in ("tau", "k", "labeled_per_class", "max_paths", "subset_cap",
                     "max_ie_terms", "hidden"):
            if getattr(cfg, name) < 1:
                raise ConfigError(f"{name} {getattr(cfg, name)} must be >= 1")
        if cfg.n0 < 1 or cfg.n1 < 1:
            raise ConfigError(f"sample counts n0 {cfg.n0} and n1 {cfg.n1} must be >= 1")
        if cfg.bound_method not in bounds.WORST_CASE_METHODS:
            raise ConfigError(f"bound_method {cfg.bound_method!r} is not one of "
                              f"{list(bounds.WORST_CASE_METHODS)}")
        if not cfg.d_min or len(set(cfg.d_min)) < len(cfg.d_min) or min(cfg.d_min) < 0:
            raise ConfigError(f"d_min {cfg.d_min} must be distinct integers >= 0, at least one")
        if len(set(cfg.flag_radii)) < len(cfg.flag_radii) or min(cfg.flag_radii, default=0) < 0:
            raise ConfigError(f"flag_radii {cfg.flag_radii} must be distinct integers >= 0")
        if cfg.rho_max_scan is not None and cfg.rho_max_scan < 1:
            raise ConfigError(f"rho_max_scan {cfg.rho_max_scan} must be >= 1 or null")
        if not cfg.edges:
            raise ConfigError("config must name an edge file")
        return cfg


def _check_files(**paths) -> None:
    """Name the first of the given files that is set but does not exist."""
    for what, p in paths.items():
        if p and not Path(p).exists():
            raise ConfigError(f"{what} file not found: {p}")


def _model(cfg: RunConfig, unnamed: str):
    """The model and payload of a model-backed run's checkpoint, checked before any input.

    The run needs ``k`` >= the GCN's two layers: with a shallower field, a
    node two hops away moves the prediction but is no candidate, so the
    certificate would be unsound.  ``unnamed`` is the error for a config
    that names no model.  Once the checkpoint is found, the run takes the
    allocator policy of model runs (module doc).
    """
    if cfg.k < 2:
        raise ConfigError(f"k {cfg.k} is below the model's 2 layers; use k >= 2")
    if not cfg.model:
        raise ConfigError(unnamed)
    _check_files(model=cfg.model)
    _keep_freed_memory()
    return gcn.load_checkpoint(cfg.model)


def _load_inputs(cfg: RunConfig):
    _check_files(edges=cfg.edges, features=cfg.features, labels=cfg.labels)
    return load_graph(cfg.edges, cfg.features or None, cfg.labels or None,
                      directed=cfg.directed)


def _integer(value, what: str) -> int:
    """``value`` as an int: ``1.0`` reads as 1; ``1.5``, ``true`` and strings are errors."""
    if isinstance(value, bool) or not (
            isinstance(value, int) or isinstance(value, float) and value.is_integer()):
        raise ConfigError(f"{what} {value!r} is not an integer")
    return int(value)


def _typed(name: str, kind: str, value):
    """``value`` of config key ``name`` checked against its annotation ``kind``.

    Integers go through ``_integer``; a float accepts an int but no bool or
    non-finite number; ``d_min`` and ``flag_radii`` are lists of integers.
    ``nodes`` is checked where it is read.
    """
    if value is None and kind.endswith("| None"):
        return None
    kind = kind.removesuffix(" | None")
    if kind == "int":
        return _integer(value, name)
    if kind == "float":
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            raise ConfigError(f"{name} {value!r} is not a finite number")
        return value
    if kind == "list":
        if not isinstance(value, list):
            raise ConfigError(f"{name} {value!r} is not a list")
        return [_integer(v, f"{name} entry") for v in value]
    expected = {"str": str, "bool": bool}.get(kind)
    if expected is not None and not isinstance(value, expected):
        raise ConfigError(f"{name} {value!r} is not a {kind}")
    return value


def _select_nodes(cfg: RunConfig, g, checkpoint_payload: dict | None = None) -> list[int]:
    """The selected nodes, sorted; only ``"test"`` reads a checkpoint's splits:
    ``checkpoint_payload``'s, or else ``cfg.model``'s where that file exists."""
    spec = cfg.nodes
    if isinstance(spec, list):
        nodes = [_integer(v, "node id") for v in spec]
        bad = [v for v in nodes if not 0 <= v < g.n]
        if bad:
            raise ConfigError(f"node selection out of range: {bad}")
        return sorted(set(nodes))
    if isinstance(spec, dict) and set(spec) == {"random"}:
        m = _integer(spec["random"], "random node count")
        if m < 0:
            raise ConfigError(f"random node count {m} is negative")
        rng = np.random.default_rng((cfg.seed, 0xC0FFEE))
        return sorted(rng.choice(g.n, size=min(m, g.n), replace=False).tolist())
    if spec == "all":
        return list(range(g.n))
    if spec == "test":
        if checkpoint_payload is None and cfg.model and Path(cfg.model).exists():
            checkpoint_payload = gcn.load_checkpoint(cfg.model)[1]
        splits = (checkpoint_payload or {}).get("splits")
        if isinstance(splits, dict) and isinstance(splits.get("test"), list):
            return sorted(_integer(v, "node id") for v in splits["test"])
        raise ConfigError(
            "nodes='test' needs a checkpoint with recorded splits; "
            "use an explicit list, 'all', or {\"random\": m}"
        )
    raise ConfigError(f"bad node selection {spec!r}")


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1, default=str)
        fh.write("\n")


def _per_node(cfg: RunConfig, g, nodes: list[int], name: str, columns: list[str], work,
              missing: dict | None = None) -> tuple[Path, dict, dict[int, str]]:
    """Run ``work(v, rf)`` on each node's receptive field, then write one CSV row per node.

    Fields come from ``receptive_fields`` at ``cfg.k`` and ``cfg.max_paths``,
    in the order of ``nodes``; a field over ``max_paths`` is a
    ``ResourceLimitError``.  ``missing`` maps a node to the error it fails
    with in place of its field (``certify``'s nodes that lack votes), so
    that node reports it even if its field is over ``max_paths``.  ``work``
    returns the node's cells under ``columns`` plus a value.  A node whose
    field is an error, or whose ``work`` exceeds a subset cap, fails and
    the batch goes on.  ``cfg.out_dir / name`` gets a ``node_id``,
    ``columns``, ``error`` header and the rows in node order; a failed
    node's row has blank cells and the error.  The output directory is
    made just before the file is written.  Returns the file's path, the
    values and the failure messages, both keyed by node.
    """
    missing = missing or {}
    cells: dict[int, list] = {}
    values: dict = {}
    failures: dict[int, str] = {}
    for v, rf in zip(nodes, receptive_fields(g, nodes, cfg.k, max_paths=cfg.max_paths)):
        try:
            rf = missing.get(v, rf)
            if isinstance(rf, Exception):
                raise rf
            cells[v], values[v] = work(v, rf)
        except (ResourceLimitError, InsufficientSamplesError) as exc:
            failures[v] = f"{type(exc).__name__}: {exc}"
    path = Path(cfg.out_dir) / name
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node_id"] + columns + ["error"])
        for v in nodes:
            if v in failures:
                writer.writerow([v] + [""] * len(columns) + [failures[v]])
            else:
                writer.writerow([v] + cells[v] + [""])
    return path, values, failures


# ---------------------------------------------------------------------------
# train


def cmd_train(cfg: RunConfig) -> int:
    tc = gcn.TrainConfig(
        lr=cfg.lr, weight_decay=cfg.weight_decay, epochs=cfg.epochs,
        patience=cfg.patience, dropout=cfg.dropout,
        p_del=cfg.train_p_del, p_abl=cfg.train_p_abl,
        hidden=cfg.hidden, skip=cfg.skip, seed=cfg.seed,
    )
    _keep_freed_memory()
    g = _load_inputs(cfg)
    if g.labels is None:
        raise ConfigError("training requires a label file")
    labeled, test = gcn.split_by_class(
        np.flatnonzero(g.labels >= 0), g.labels, np.random.default_rng((cfg.seed, 0x7A1E)),
        lambda size: min(2 * cfg.labeled_per_class, size))
    history: list = []
    model = gcn.train(g, labeled, tc, history=history)

    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ckpt = out / "model.json"
    gcn.save_checkpoint(model, ckpt, train_config=tc, extra={
        "splits": {"labeled": labeled, "test": test},
        "run_config": asdict(cfg),
    })
    with open(out / "training_log.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "loss", "val_acc"])
        writer.writerows(history)

    best_val = max((h[2] for h in history), default=float("nan"))
    print(f"trained {len(labeled)} labeled nodes, {len(history)} epochs, "
          f"best val_acc {best_val:.3f} -> {ckpt}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# certify


def cmd_certify(cfg: RunConfig) -> int:
    model = payload = None
    if cfg.votes:
        _check_files(vote=cfg.votes)
    else:
        model, payload = _model(cfg, "certify needs either a model checkpoint or a vote file")
        if model.skip and 0 in cfg.d_min:
            # the d_min 0 bound lets the target through only when it is not ablated
            raise ConfigError(f"d_min {cfg.d_min} holds 0, but checkpoint {cfg.model} has skip "
                              "true, which reads the target's features unablated; use d_min >= 1")
    g = _load_inputs(cfg)
    nodes = _select_nodes(cfg, g, payload)
    d_mins = sorted(cfg.d_min)
    scfg = smoothing.SmoothingConfig(p_del=cfg.p_del, p_abl=cfg.p_abl, seed=cfg.seed)
    # a node that lacks votes fails alone with that error (_per_node);
    # a vote table is freed once tallied
    missing: dict[int, InsufficientSamplesError] = {}
    tallies = estimator.estimate_all(gcn.load_votes(cfg.votes) if cfg.votes else model, g,
                                     nodes, scfg, cfg.n0, cfg.n1, cfg.alpha, missing=missing)

    def work(v: int, rf):
        tally = tallies[v]
        surfaces = {dm: rf.attack_surface(dm) for dm in d_mins}
        # built by certify at the node's confidence bounds, unless it abstains
        curves = {
            dm: functools.partial(
                bounds.worst_case_curve, rf, dm, scfg, method=cfg.bound_method,
                rho_max=cfg.rho_max_scan,
                subset_cap=cfg.subset_cap, max_terms=cfg.max_ie_terms,
            )
            for dm in d_mins
        }
        label = None
        if g.labels is not None and g.labels[v] >= 0:
            label = int(g.labels[v])
        res = estimator.certify(tally, curves, label=label)
        cells = [res.prediction, int(res.abstain),
                 repr(res.p_lower), repr(res.p_upper),
                 "" if res.correct is None else int(res.correct)]
        for dm in d_mins:
            cells += [res.certified_radius[dm], surfaces[dm]]
        for dm in d_mins:
            cells += [int(res.certified_radius[dm] >= r) for r in cfg.flag_radii]
        return cells, (res, surfaces)

    columns = ["prediction", "abstain", "p_lower", "p_upper", "correct"]
    for dm in d_mins:
        columns += [f"radius_dmin_{dm}", f"surface_dmin_{dm}"]
    for dm in d_mins:
        columns += [f"cert_dmin_{dm}_rho_{r}" for r in cfg.flag_radii]
    path, done, failures = _per_node(cfg, g, nodes, "results.csv", columns, work, missing)

    summary: dict = {"config": asdict(cfg), "failures": failures,
                     "certified": len(done)}
    if done:
        summary.update(estimator.report([done[v][0] for v in sorted(done)],
                                        {v: done[v][1] for v in done}))
    _write_json(path.with_name("summary.json"), summary)

    print(f"certified {len(done)}/{len(nodes)} nodes "
          f"({len(failures)} failures) -> {path}")
    return EXIT_PARTIAL if failures else EXIT_OK


# ---------------------------------------------------------------------------
# derandomize


def cmd_derandomize(cfg: RunConfig) -> int:
    model, payload = _model(cfg, "derandomize needs a model checkpoint")
    g = _load_inputs(cfg)
    nodes = _select_nodes(cfg, g, payload)
    classes = model.classes

    scorer = gcn.LocalScorer(model, g)

    def work(v: int, rf):
        d = rf.size - 1
        kk = derandomize.retention_count(d, cfg.k_rel)
        support = math.comb(d, kk)
        try:
            reps = derandomize.enumerate_representatives(rf, kk, tau=cfg.tau)
        except EnumerationRefused:
            return [d, kk, support, 0] + [""] * (5 + classes), None
        probs = derandomize.exact_label_probs(rf, reps, kk, scorer.predict_retaining,
                                              classes)
        order = sorted(range(classes), key=lambda c: (-probs[c], c))
        y_star, y_tilde = order[0], order[1] if classes > 1 else order[0]
        # the keep-k deletion bound 1 - C(d - rho, k) / C(d, k), exact like probs
        radius = estimator.radius(
            probs[y_star], probs[y_tilde],
            (1 - Fraction(math.comb(d - rho, kk), support) for rho in range(1, d - kk + 1)))
        savings = derandomize.savings_ratio(reps, d, kk)
        return ([d, kk, support, 1, len(reps), repr(savings), y_star, radius,
                 int(radius >= 1)]
                + [f"{p.numerator}/{p.denominator}" for p in probs]), savings

    columns = (["field_size", "k", "support", "derandomized", "reps", "savings",
                "prediction", "radius", "certified"]
               + [f"p_class_{c}" for c in range(classes)])
    path, savings_by_node, failures = _per_node(cfg, g, nodes, "derandomized.csv", columns,
                                                work)

    done = [x for x in savings_by_node.values() if x is not None]
    summary = {
        "config": asdict(cfg),
        "nodes": len(nodes),
        "derandomized_ratio": len(done) / len(nodes) if nodes else 0.0,
        "mean_savings": float(np.mean(done)) if done else None,
        "failures": failures,
        "conventions": {
            "radius": "largest rho with exact top-class margin beating twice the "
                      "keep-k deletion arrival bound (levine-reference)",
        },
    }
    _write_json(path.with_name("derandomize_summary.json"), summary)
    print(f"derandomized {len(done)}/{len(nodes)} nodes -> {path}")
    return EXIT_PARTIAL if failures else EXIT_OK


# ---------------------------------------------------------------------------
# report


def _read_results(path: str):
    """Radius d_mins, certificates and attack surfaces of one results CSV.

    Rows that record an error are left out.
    """
    if not Path(path).exists():
        raise ConfigError(f"results file not found: {path}")
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        d_mins = sorted(int(c.rsplit("_", 1)[1]) for c in reader.fieldnames or ()
                        if c.startswith("radius_dmin_"))
        rows = [row for row in reader if not row.get("error")]
    if not rows:
        raise ConfigError(f"results file {path} has no usable rows")
    try:
        results = [estimator.CertificateResult(
            node=int(row["node_id"]), prediction=int(row["prediction"]),
            abstain=row["abstain"] == "1", p_lower=float(row["p_lower"]),
            p_upper=float(row["p_upper"]),
            certified_radius={dm: int(row[f"radius_dmin_{dm}"]) for dm in d_mins},
            correct=None if row["correct"] == "" else row["correct"] == "1",
        ) for row in rows]
        surfaces = {int(row["node_id"]): {dm: int(row[f"surface_dmin_{dm}"])
                                          for dm in d_mins} for row in rows}
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"results file {path} is malformed: "
                          f"{type(exc).__name__}: {exc}") from None
    return d_mins, results, surfaces


def cmd_report(result_paths: list[str], out_dir: str) -> int:
    if not result_paths:
        raise ConfigError("report needs at least one results CSV")
    tables = [_read_results(p) for p in result_paths]
    d_mins = tables[0][0]
    if not d_mins:
        raise ConfigError("no radius columns found in the results files")
    for p, (file_d_mins, _, _) in zip(result_paths, tables):
        if file_d_mins != d_mins:
            raise ConfigError(
                f"results file {p} has radius columns for d_min {file_d_mins}, "
                f"but {result_paths[0]} has {d_mins}")
    reports = [estimator.report(results, surfaces)
               for _, results, surfaces in tables]

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    aucrc_rows = []
    for dm in d_mins:
        entries = [rep["per_d_min"][dm] for rep in reports]
        radii = range(max(len(e["certified_ratio"]) for e in entries))
        # shorter curves are 0 past their largest radius; a file with any
        # unlabelled row has no accuracy curve and gets blank cells
        for curve in ("certified_ratio", "certified_accuracy"):
            with open(out / f"{curve}_dmin_{dm}.csv", "w",
                      encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["radius"] + result_paths)
                for r in radii:
                    writer.writerow([r] + [
                        "" if curve not in e else
                        repr(e[curve][r] if r < len(e[curve]) else 0.0)
                        for e in entries
                    ])
        aucrc_rows += [[p, dm, repr(e["aucrc"]), repr(e["aucrc_normalized"])]
                       for p, e in zip(result_paths, entries)]

    with open(out / "aucrc.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["results", "d_min", "aucrc", "aucrc_normalized"])
        writer.writerows(aucrc_rows)

    print(f"report over {len(tables)} result sets -> {out / 'aucrc.csv'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# paths


def cmd_paths(cfg: RunConfig) -> int:
    g = _load_inputs(cfg)
    nodes = _select_nodes(cfg, g)
    d_mins = sorted(cfg.d_min)

    def work(v: int, rf):
        longest = int(rf.path_length.max(initial=0))
        return ([rf.size, len(rf.path_length), longest, int(bounds.is_tree(rf))]
                + [rf.attack_surface(dm) for dm in d_mins]), None

    columns = (["field_size", "simple_paths", "longest_path", "is_tree"]
               + [f"surface_dmin_{dm}" for dm in d_mins])
    path, done, failures = _per_node(cfg, g, nodes, "paths.csv", columns, work)

    print(f"receptive-field stats for {len(done)} nodes -> {path}")
    return EXIT_PARTIAL if failures else EXIT_OK


# ---------------------------------------------------------------------------
# entry point

_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 32 * 1024 * 1024     # glibc's largest on 64-bit
_TRIM_THRESHOLD = 64 * 1024 * 1024


def _keep_freed_memory() -> None:
    """Have glibc keep freed MB-sized arrays on the heap, for model runs; see the module doc.

    Does nothing where the C library has no ``mallopt`` or refuses it.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD):
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gnncert",
        description="Certify message-passing node classifiers under "
                    "randomized message interception.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", default=None, help="override output directory")

    for name in ("train", "certify", "derandomize", "paths"):
        add_common(sub.add_parser(name))
    rep = sub.add_parser("report")
    rep.add_argument("results", nargs="*", help="results.csv files to compare")
    rep.add_argument("--out", default="out", help="output directory")

    args = parser.parse_args(argv)
    try:
        if args.command == "report":
            return cmd_report(args.results, args.out)
        cfg = RunConfig.from_file(args.config, {"seed": args.seed, "out_dir": args.out})
        return {
            "train": cmd_train,
            "certify": cmd_certify,
            "derandomize": cmd_derandomize,
            "paths": cmd_paths,
        }[args.command](cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
