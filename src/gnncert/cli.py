"""Command-line orchestration: train, certify, derandomize, report, paths.

One JSON config drives a run; every output embeds the resolved config so a
run is reconstructible from its artifacts alone.  Outputs are deterministic
byte-for-byte for a fixed config and seed: rows are sorted by node id and no
timestamps are written.  Per-node failures (path budget, subset caps) are
recorded in the output and do not abort the batch.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass, asdict, field, fields
from pathlib import Path

import numpy as np

from . import bounds, derandomize, estimator, gcn, smoothing
from .errors import ConfigError, EnumerationRefused, ResourceLimitError
from .graph import load_graph, receptive_field

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
    train_p_del: float = 0.0
    train_p_abl: float = 0.0
    lr: float = 1e-3
    weight_decay: float = 5e-4
    epochs: int = 1000
    patience: int = 50
    dropout: float = 0.8
    hidden: int = 64
    labeled_per_class: int = 20
    n0: int = 1000
    n1: int = 3000
    alpha: float = 0.01
    d_min: list = field(default_factory=lambda: [1])
    bound_method: str = "multiplicative"
    rho_max_scan: int | None = None
    flag_radii: list = field(default_factory=list)
    k_rel: float = 0.1
    tau: int = 100_000
    seed: int = 0
    skip: bool = False
    nodes: object = "test"
    max_paths: int = 100_000
    subset_cap: int = 50_000
    max_ie_terms: int = 2 ** 20
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
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        raw.update({k: v for k, v in overrides.items() if v is not None})
        cfg = cls(**raw)
        for p in (cfg.p_del, cfg.p_abl, cfg.train_p_del, cfg.train_p_abl):
            if not 0.0 <= p <= 1.0:
                raise ConfigError(f"probability {p} outside [0, 1]")
        if not cfg.edges:
            raise ConfigError("config must name an edge file")
        return cfg


def _load_inputs(cfg: RunConfig):
    for name in ("edges", "features", "labels"):
        p = getattr(cfg, name)
        if p is not None and p != "" and not Path(p).exists():
            raise ConfigError(f"{name} file not found: {p}")
    return load_graph(cfg.edges, cfg.features or None, cfg.labels or None,
                      directed=cfg.directed)


def _select_nodes(cfg: RunConfig, g, checkpoint_payload: dict | None) -> list[int]:
    spec = cfg.nodes
    if isinstance(spec, list):
        nodes = [int(v) for v in spec]
        bad = [v for v in nodes if not 0 <= v < g.n]
        if bad:
            raise ConfigError(f"node selection out of range: {bad}")
        return sorted(set(nodes))
    if isinstance(spec, dict) and set(spec) == {"random"}:
        m = int(spec["random"])
        rng = np.random.default_rng((cfg.seed, 0xC0FFEE))
        return sorted(rng.choice(g.n, size=min(m, g.n), replace=False).tolist())
    if spec == "all":
        return list(range(g.n))
    if spec == "test":
        if checkpoint_payload and "splits" in checkpoint_payload:
            return sorted(int(v) for v in checkpoint_payload["splits"]["test"])
        raise ConfigError(
            "nodes='test' needs a checkpoint with recorded splits; "
            "use an explicit list, 'all', or {\"random\": m}"
        )
    raise ConfigError(f"bad node selection {spec!r}")


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1, default=str)
        fh.write("\n")


# ---------------------------------------------------------------------------
# train


def cmd_train(cfg: RunConfig) -> int:
    g = _load_inputs(cfg)
    if g.labels is None:
        raise ConfigError("training requires a label file")
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    labeled_pool = [v for v in range(g.n) if g.labels[v] >= 0]
    rng = np.random.default_rng((cfg.seed, 0x7A1E))
    by_class: dict[int, list[int]] = {}
    for v in labeled_pool:
        by_class.setdefault(int(g.labels[v]), []).append(v)
    labeled: list[int] = []
    for c in sorted(by_class):
        pool = by_class[c]
        perm = rng.permutation(len(pool))
        take = min(2 * cfg.labeled_per_class, len(pool))
        labeled.extend(pool[i] for i in perm[:take])
    labeled = sorted(labeled)
    test = sorted(set(labeled_pool) - set(labeled))

    tc = gcn.TrainConfig(
        lr=cfg.lr, weight_decay=cfg.weight_decay, epochs=cfg.epochs,
        patience=cfg.patience, dropout=cfg.dropout,
        p_del=cfg.train_p_del, p_abl=cfg.train_p_abl,
        hidden=cfg.hidden, skip=cfg.skip, seed=cfg.seed,
    )
    history: list = []
    model = gcn.train(g, labeled, tc, history=history)

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


def _delta_curve_fn(curve: list[bounds.DeltaBound]):
    """Wrap a per-budget list; budgets past the end keep the final value."""
    def fn(rho: int) -> bounds.DeltaBound:
        if not curve:
            return bounds.DeltaBound(value=0.0, method="multiplicative", rho=rho)
        return curve[min(rho, len(curve)) - 1]
    return fn


def cmd_certify(cfg: RunConfig) -> int:
    g = _load_inputs(cfg)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    payload = None
    vote_table = None
    model = None
    if cfg.model and Path(cfg.model).exists():
        model, payload = gcn.load_checkpoint(cfg.model)
    if cfg.votes:
        if not Path(cfg.votes).exists():
            raise ConfigError(f"vote file not found: {cfg.votes}")
        vote_table = gcn.load_votes(cfg.votes)
        token = np.zeros(g.dim)
    elif model is not None:
        token = model.token
    else:
        raise ConfigError("certify needs either a model checkpoint or a vote file")

    nodes = _select_nodes(cfg, g, payload)
    scfg = smoothing.SmoothingConfig(p_del=cfg.p_del, p_abl=cfg.p_abl,
                                     token=token, k=cfg.k, seed=cfg.seed)

    tallies: dict[int, estimator.VoteTally] = {}
    failures: dict[int, str] = {}
    if vote_table is not None:
        for v in nodes:
            try:
                tallies[v] = estimator.estimate(vote_table, g, v, scfg,
                                                cfg.n0, cfg.n1, cfg.alpha)
            except Exception as exc:        # per-node, run continues
                failures[v] = f"{type(exc).__name__}: {exc}"
    else:
        tallies = estimator.estimate_all(model, g, nodes, scfg,
                                         cfg.n0, cfg.n1, cfg.alpha)

    d_mins = sorted(int(d) for d in cfg.d_min)

    def work(v: int):
        rf = receptive_field(g, v, cfg.k, max_paths=cfg.max_paths)
        curves = {}
        scan = {}
        for dm in d_mins:
            surface = rf.attack_surface(dm)
            scan[dm] = cfg.rho_max_scan if cfg.rho_max_scan else surface
            curve = bounds.worst_case_curve(
                rf, dm, scfg, method=cfg.bound_method, rho_max=scan[dm],
                subset_cap=cfg.subset_cap, max_terms=cfg.max_ie_terms,
            )
            curves[dm] = _delta_curve_fn(curve)
        label = None
        if g.labels is not None and g.labels[v] >= 0:
            label = int(g.labels[v])
        res = estimator.certify(tallies[v], curves, scan, label=label)
        surfaces = {dm: rf.attack_surface(dm) for dm in d_mins}
        return res, rf, surfaces

    results = {}
    rfs = {}
    surfaces_by_node = {}
    for v in nodes:
        if v not in tallies:
            continue
        outcome = _guard(work, v)
        if isinstance(outcome, str):
            failures[v] = outcome
        else:
            results[v], rfs[v], surfaces_by_node[v] = outcome

    header = ["node_id", "prediction", "abstain", "p_lower", "p_upper", "correct"]
    for dm in d_mins:
        header += [f"radius_dmin_{dm}", f"surface_dmin_{dm}"]
    for dm in d_mins:
        for r in cfg.flag_radii:
            header.append(f"cert_dmin_{dm}_rho_{r}")
    header.append("error")

    with open(out / "results.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for v in nodes:
            if v in failures:
                writer.writerow([v] + [""] * (len(header) - 2) + [failures[v]])
                continue
            res = results[v]
            row = [v, res.prediction, int(res.abstain),
                   repr(res.p_lower), repr(res.p_upper),
                   "" if res.correct is None else int(res.correct)]
            for dm in d_mins:
                row += [res.certified_radius[dm], surfaces_by_node[v][dm]]
            for dm in d_mins:
                for r in cfg.flag_radii:
                    row.append(int(res.certified_radius[dm] >= r))
            row.append("")
            writer.writerow(row)

    summary: dict = {"config": asdict(cfg), "failures": failures,
                     "certified": len(results)}
    if results:
        rep = estimator.report([results[v] for v in sorted(results)], rfs)
        summary.update(rep)
    _write_json(out / "summary.json", summary)

    print(f"certified {len(results)}/{len(nodes)} nodes "
          f"({len(failures)} failures) -> {out / 'results.csv'}")
    return EXIT_PARTIAL if failures else EXIT_OK


def _guard(fn, v):
    try:
        return fn(v)
    except (ResourceLimitError, EnumerationRefused) as exc:
        return f"{type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# derandomize


def cmd_derandomize(cfg: RunConfig) -> int:
    g = _load_inputs(cfg)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if not cfg.model or not Path(cfg.model).exists():
        raise ConfigError("derandomize needs a model checkpoint")
    model, payload = gcn.load_checkpoint(cfg.model)
    nodes = _select_nodes(cfg, g, payload)
    classes = model.classes

    def predict(view, v):
        return int(np.argmax(gcn.forward(model, view, v)))

    def work(v: int):
        rf = receptive_field(g, v, cfg.k, max_paths=cfg.max_paths)
        d = rf.size - 1
        kk = derandomize.retention_count(d, cfg.k_rel)
        support = math.comb(d, kk)
        if support > cfg.tau:
            return {"node": v, "d": d, "k": kk, "support": support,
                    "derandomized": 0}
        reps = derandomize.enumerate_representatives(rf, kk, tau=None)
        probs = derandomize.exact_label_probs(g, rf, reps, kk, predict, classes)
        order = sorted(range(classes), key=lambda c: (-probs[c], c))
        y_star, y_tilde = order[0], order[1] if classes > 1 else order[0]
        radius = 0
        for rho in range(1, d - kk + 1):
            delta = bounds.levine_delta(d, kk, rho).value
            if float(probs[y_star]) - delta > float(probs[y_tilde]) + delta:
                radius = rho
            else:
                break
        return {"node": v, "d": d, "k": kk, "support": support,
                "derandomized": 1, "reps": len(reps),
                "savings": len(reps) / support if support else 1.0,
                "probs": probs, "prediction": y_star, "radius": radius}

    rows = []
    failures: dict[int, str] = {}
    for v in nodes:
        outcome = _guard(work, v)
        if isinstance(outcome, str):
            failures[v] = outcome
        else:
            rows.append(outcome)

    header = (["node_id", "field_size", "k", "support", "derandomized",
               "reps", "savings", "prediction", "radius", "certified"]
              + [f"p_class_{c}" for c in range(classes)] + ["error"])
    with open(out / "derandomized.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in sorted(rows, key=lambda r: r["node"]):
            if row["derandomized"]:
                probs = [f"{p.numerator}/{p.denominator}" for p in row["probs"]]
                writer.writerow([row["node"], row["d"], row["k"], row["support"],
                                 1, row["reps"], repr(row["savings"]),
                                 row["prediction"], row["radius"],
                                 int(row["radius"] >= 1)] + probs + [""])
            else:
                writer.writerow([row["node"], row["d"], row["k"], row["support"],
                                 0, "", "", "", "", ""] + [""] * classes + [""])
        for v in sorted(failures):
            writer.writerow([v] + [""] * (len(header) - 2) + [failures[v]])

    done = [r for r in rows if r["derandomized"]]
    summary = {
        "config": asdict(cfg),
        "nodes": len(nodes),
        "derandomized_ratio": len(done) / len(nodes) if nodes else 0.0,
        "mean_savings": (float(np.mean([r["savings"] for r in done]))
                         if done else None),
        "failures": failures,
        "conventions": {
            "radius": "largest rho with exact top-class margin beating twice the "
                      "keep-k deletion arrival bound (levine-reference)",
        },
    }
    _write_json(out / "derandomize_summary.json", summary)
    print(f"derandomized {len(done)}/{len(nodes)} nodes -> "
          f"{out / 'derandomized.csv'}")
    return EXIT_PARTIAL if failures else EXIT_OK


# ---------------------------------------------------------------------------
# report


def cmd_report(result_paths: list[str], out_dir: str) -> int:
    if not result_paths:
        raise ConfigError("report needs at least one results CSV")
    tables = []
    for p in result_paths:
        if not Path(p).exists():
            raise ConfigError(f"results file not found: {p}")
        with open(p, "r", encoding="utf-8", newline="") as fh:
            rows = [row for row in csv.DictReader(fh) if not row.get("error")]
        if not rows:
            raise ConfigError(f"results file {p} has no usable rows")
        tables.append((p, rows))

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    d_mins = sorted({
        int(c.split("_")[-1])
        for _, rows in tables for c in rows[0] if c.startswith("radius_dmin_")
    })
    if not d_mins:
        raise ConfigError("no radius columns found in the results files")

    aucrc_rows = []
    for dm in d_mins:
        col = f"radius_dmin_{dm}"
        scol = f"surface_dmin_{dm}"
        radii_by_file = []
        for name, rows in tables:
            radii = np.array([int(r[col]) for r in rows if r.get(col, "") != ""])
            radii_by_file.append((name, rows, radii))
        max_r = max((int(r.max()) for _, _, r in radii_by_file if len(r)), default=0)

        with open(out / f"certified_ratio_dmin_{dm}.csv", "w",
                  encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["radius"] + [name for name, _, _ in radii_by_file])
            for r in range(max_r + 1):
                writer.writerow([r] + [
                    repr(float(np.mean(radii >= r)))
                    for _, _, radii in radii_by_file
                ])

        with open(out / f"certified_accuracy_dmin_{dm}.csv", "w",
                  encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["radius"] + [name for name, _, _ in radii_by_file])
            for r in range(max_r + 1):
                vals = []
                for _, rows, radii in radii_by_file:
                    good = np.array([row.get("correct", "") == "1" for row in rows])
                    vals.append(repr(float(np.mean(good & (radii >= r)))))
                writer.writerow([r] + vals)

        for name, rows, radii in radii_by_file:
            aucrc = math.fsum(float(np.mean(radii >= r)) for r in range(max_r + 1))
            norm = []
            for row, rad in zip(rows, radii):
                surface = int(row[scol]) if row.get(scol, "") != "" else 0
                if surface > 0:
                    norm.append(min(1.0, rad / surface))
                else:
                    norm.append(0.0 if row.get("abstain") == "1" else 1.0)
            xs = sorted({0.0, 1.0, *norm})
            ys = [float(np.mean(np.array(norm) >= x)) for x in xs]
            aucrc_rows.append([name, dm, repr(aucrc),
                               repr(float(np.trapezoid(ys, xs)))])

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
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    payload = None
    if cfg.model and Path(cfg.model).exists():
        payload = gcn.load_checkpoint(cfg.model)[1]
    nodes = _select_nodes(cfg, g, payload)
    d_mins = sorted(int(d) for d in cfg.d_min)

    def work(v: int):
        rf = receptive_field(g, v, cfg.k, max_paths=cfg.max_paths)
        n_paths = sum(len(p) for p in rf.paths.values())
        longest = max((len(q) for p in rf.paths.values() for q in p), default=0)
        return ([v, rf.size, n_paths, longest, int(bounds.is_tree(rf))]
                + [rf.attack_surface(dm) for dm in d_mins] + [""])

    failures: dict[int, str] = {}
    rows = []
    for v in nodes:
        outcome = _guard(work, v)
        if isinstance(outcome, str):
            failures[v] = outcome
        else:
            rows.append(outcome)

    header = (["node_id", "field_size", "simple_paths", "longest_path", "is_tree"]
              + [f"surface_dmin_{dm}" for dm in d_mins] + ["error"])
    with open(out / "paths.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in sorted(rows):
            writer.writerow(row)
        for v in sorted(failures):
            writer.writerow([v] + [""] * (len(header) - 2) + [failures[v]])

    print(f"receptive-field stats for {len(rows)} nodes -> {out / 'paths.csv'}")
    return EXIT_PARTIAL if failures else EXIT_OK


# ---------------------------------------------------------------------------
# entry point


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
        p.add_argument("--workers", type=int, default=None,
                       help="accepted for old configs; ignored")
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
        overrides = {"seed": args.seed, "workers": args.workers,
                     "out_dir": args.out}
        cfg = RunConfig.from_file(args.config, overrides)
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
