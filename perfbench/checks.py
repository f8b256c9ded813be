"""Output checks for the CLI's result files.

Three kinds, each returning a list of named mismatches (empty means pass):

* ``invariants`` holds for every seed: an abstaining node has radius 0,
  a radius never exceeds its attack surface, and a node abstains exactly
  when ``p_lower <= p_upper``.  A run that sets ``rho_max_scan`` scans
  budgets past the surface, where the worst-case curve is flat because no
  further node can be attacked; there a radius above the surface must equal
  ``rho_max_scan`` exactly, and no radius may exceed ``rho_max_scan``.
  Derandomized rows carry exact probabilities that sum to 1, a prediction
  that is their argmax, at most ``support`` representatives, and
  ``certified`` equal to ``radius >= 1``.
* ``against_reference`` compares with a file recorded by the benchmark for
  the default seed: every row that had no error must come back
  byte-identical; a row that was refused may now succeed.
* ``identical`` compares the bytes of two runs' output directories.
"""

from __future__ import annotations

import csv
import functools
import io
from fractions import Fraction
from pathlib import Path


def _rows(text: str) -> tuple[list[str], list[dict[str, str]]]:
    reader = csv.DictReader(io.StringIO(text))
    return list(reader.fieldnames or []), list(reader)


def error_rows(text: str) -> int:
    return sum(1 for row in _rows(text)[1] if row.get("error"))


def invariants(name: str, text: str, targets: list[int],
               rho_max_scan: int | None = None) -> list[str]:
    header, rows = _rows(text)
    found = sorted(int(r["node_id"]) for r in rows)
    if found != sorted(targets):
        return [f"{name}: rows cover nodes {found[:8]}..., expected the "
                f"{len(targets)} targets"]
    check = (functools.partial(_check_results, rho_max_scan=rho_max_scan)
             if "abstain" in header else _check_derandomized)
    bad: list[str] = []
    for row in rows:
        if row["error"]:
            filled = [k for k in header if k not in ("node_id", "error") and row[k]]
            if filled:
                bad.append(f"{name}: node {row['node_id']} has an error and values in {filled}")
            continue
        bad.extend(f"{name}: node {row['node_id']}: {msg}" for msg in check(header, row))
    return bad


def _check_results(header: list[str], row: dict[str, str],
                   rho_max_scan: int | None) -> list[str]:
    bad = []
    abstain = row["abstain"] == "1"
    if abstain == (float(row["p_lower"]) > float(row["p_upper"])):
        bad.append(f"abstain={row['abstain']} but p_lower={row['p_lower']} "
                   f"p_upper={row['p_upper']}")
    for col in header:
        if not col.startswith("radius_dmin_"):
            continue
        radius = int(row[col])
        surface = int(row[col.replace("radius_", "surface_")])
        if abstain and radius != 0:
            bad.append(f"abstains with {col}={radius}")
        if radius > surface and radius != rho_max_scan:
            bad.append(f"{col}={radius} exceeds surface {surface}")
        if rho_max_scan is not None and radius > rho_max_scan:
            bad.append(f"{col}={radius} exceeds rho_max_scan {rho_max_scan}")
    return bad


def _check_derandomized(header: list[str], row: dict[str, str]) -> list[str]:
    if row["derandomized"] != "1":
        return []
    bad = []
    probs = [Fraction(row[c]) for c in header if c.startswith("p_class_")]
    if sum(probs) != 1:
        bad.append(f"class probabilities sum to {sum(probs)}")
    top = max(range(len(probs)), key=lambda c: (probs[c], -c))
    if int(row["prediction"]) != top:
        bad.append(f"prediction {row['prediction']} is not the argmax {top}")
    if int(row["reps"]) > int(row["support"]):
        bad.append(f"{row['reps']} representatives exceed support {row['support']}")
    if (row["certified"] == "1") != (int(row["radius"]) >= 1):
        bad.append(f"certified={row['certified']} with radius {row['radius']}")
    return bad


def against_reference(name: str, text: str, reference: str) -> list[str]:
    ref_lines = reference.splitlines()
    lines = text.splitlines()
    if not lines or lines[0] != ref_lines[0]:
        return [f"{name}: header differs from the reference"]
    ref_header, ref_rows = _rows(reference)
    current = {line.split(",", 1)[0]: line for line in lines[1:]}
    bad = []
    for line, row in zip(ref_lines[1:], ref_rows):
        if row["error"]:
            continue
        got = current.get(row["node_id"])
        if got != line:
            bad.append(f"{name}: node {row['node_id']} expected {line!r}, got {got!r}")
    return bad


def snapshot(out_dir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir()) if p.is_file()}


def identical(what: str, first: dict[str, bytes], other: dict[str, bytes]) -> list[str]:
    if first.keys() != other.keys():
        return [f"{what}: output files {sorted(other)} differ from {sorted(first)}"]
    return [f"{what}: {name} differs" for name in first if first[name] != other[name]]
