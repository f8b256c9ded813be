"""Input parsers against the line-by-line reference they replaced.

``ref_*`` below are the line-by-line parsers and the ``np.unique(axis=0)``
canonicalisation the numpy loaders replaced, kept here as the reference the
way ``test_gcn.py`` keeps the dense forward.  On well-formed files the
loaders must return equal results (features bit for bit); on malformed files
they must raise the same exception with the same message, naming the same
line.
"""

import csv
import importlib
import io
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gnncert import Graph, graph, load_graph, load_votes
from gnncert.errors import GraphParseError, VoteFormatError
from gnncert.graph import _load_edge_list, _load_feature_csv, _load_label_csv, read_table

ROOT = Path(__file__).resolve().parent.parent


def ref_edges(path):
    edges = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            parts = stripped.split()
            if len(parts) != 2:
                raise GraphParseError(
                    f"{path}: line {lineno}: expected 'src dst', got {stripped!r}"
                )
            try:
                a, b = int(parts[0]), int(parts[1])
            except ValueError:
                raise GraphParseError(
                    f"{path}: line {lineno}: non-integer endpoint in {stripped!r}"
                ) from None
            if a < 0 or b < 0:
                raise GraphParseError(
                    f"{path}: line {lineno}: negative node index"
                )
            edges.append((a, b))
    return np.asarray(edges, dtype=np.int64).reshape(-1, 2)


def ref_features(path):
    rows = []
    width = None
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            try:
                vals = [float(x) for x in row]
            except ValueError:
                raise GraphParseError(
                    f"{path}: line {lineno}: non-numeric feature value"
                ) from None
            if width is None:
                width = len(vals)
            elif len(vals) != width:
                raise GraphParseError(
                    f"{path}: line {lineno}: expected {width} columns, got {len(vals)}"
                )
            rows.append(vals)
    return np.asarray(rows, dtype=np.float64)


def ref_labels(path):
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                out.append(int(float(stripped)))
            except ValueError:
                raise GraphParseError(
                    f"{path}: line {lineno}: non-integer label {stripped!r}"
                ) from None
    return np.asarray(out, dtype=np.int64)


def ref_votes(path):
    votes = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        for lineno, row in enumerate(reader, start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if lineno == 1 and not row[0].strip().lstrip("-").isdigit():
                continue    # header
            if len(row) != 3:
                raise VoteFormatError(
                    f"{path}: line {lineno}: expected node_id,sample_index,class"
                )
            try:
                node, sample_index, cls = (int(x) for x in row)
            except ValueError:
                raise VoteFormatError(
                    f"{path}: line {lineno}: non-integer field in {row!r}"
                ) from None
            per_node = votes.setdefault(node, {})
            if sample_index in per_node:
                raise VoteFormatError(
                    f"{path}: line {lineno}: duplicate vote for node {node}, "
                    f"sample {sample_index}"
                )
            per_node[sample_index] = cls
    return votes


def ref_canonical(n, edges, directed):
    """Stored edges and logical ids the way ``np.unique(axis=0)`` gave them."""
    arr = edges[edges[:, 0] != edges[:, 1]]
    if not directed and arr.size:
        arr = np.vstack([arr, arr[:, ::-1]])
    arr = np.unique(arr, axis=0) if arr.size else arr.reshape(0, 2)
    if arr.shape[0] == 0:
        return arr, np.zeros(0, dtype=np.int64), 0
    canon = arr if directed else np.sort(arr, axis=1)
    _, ids = np.unique(canon, axis=0, return_inverse=True)
    return arr, ids.reshape(-1).astype(np.int64), int(ids.max()) + 1


# ---------------------------------------------------------------------------
# random well-formed files

SPACES = [" ", "  ", "\t", " \t "]


def random_edge_text(rng, n):
    lines = []
    for _ in range(int(rng.integers(0, 40))):
        kind = rng.random()
        if kind < 0.1:
            lines.append(rng.choice(["", "   ", "\t"]))
        elif kind < 0.2:
            lines.append(rng.choice(["# comment", "  # 0 1", "#"]))
        else:
            a, b = (str(int(x)) for x in rng.integers(0, n, 2))
            if rng.random() < 0.1:
                a = "+" + a
            if rng.random() < 0.1:
                b = "00" + b
            lines.append(rng.choice(SPACES[:2]) * int(rng.integers(0, 2))
                         + a + str(rng.choice(SPACES)) + b
                         + str(rng.choice(SPACES)) * int(rng.integers(0, 2)))
    return str(rng.choice(["\n", "\r\n"])).join(lines) + ("\n" if rng.random() < 0.7 else "")


def random_decimal(rng):
    kind = rng.random()
    if kind < 0.3:
        return repr(float(rng.normal(scale=10.0 ** rng.integers(-5, 6))))
    if kind < 0.6:          # more digits than a double holds
        sign = rng.choice(["", "-", "+"])
        return f"{sign}{rng.integers(0, 1000)}.{''.join(map(str, rng.integers(0, 10, 25)))}"
    if kind < 0.8:
        return f"{rng.normal():.{rng.integers(0, 8)}e}"
    return str(rng.choice(["0", "1", "-0", ".5", "5.", "1e-310", "1e308", "1e999", "inf",
                           "-inf", "nan", "-nan", " 2.5 ", "3"]))


def random_feature_text(rng, rows, width):
    lines = [",".join(random_decimal(rng) for _ in range(width)) for _ in range(rows)]
    for _ in range(int(rng.integers(0, 3))):
        lines.insert(int(rng.integers(0, len(lines) + 1)), str(rng.choice(["", "  "])))
    return str(rng.choice(["\n", "\r\n"])).join(lines) + "\n"


def random_label_text(rng, rows):
    lines = [str(rng.choice([str(int(c)), f"{int(c)}.0", f" {int(c)} "]))
             for c in rng.integers(-1, 7, rows)]
    return "\n".join(lines) + "\n"


def random_vote_text(rng):
    rows = [(int(v), int(i), int(c)) for v in rng.permutation(8)[:int(rng.integers(0, 6))]
            for i in rng.permutation(30)[:int(rng.integers(1, 30))]
            for c in rng.integers(0, 5, 1)]
    order = rng.permutation(len(rows))
    lines = [f"{rows[k][0]},{rows[k][1]}, {rows[k][2]}" if rng.random() < 0.1
             else ",".join(map(str, rows[k])) for k in order]
    if rng.random() < 0.5:
        lines.insert(0, "node_id,sample_index,class")
    if lines and rng.random() < 0.3:
        lines.insert(int(rng.integers(1, len(lines) + 1)), "")
    return "\n".join(lines) + "\n"


def test_edge_list_and_graph_match_reference(tmp_path, rng):
    path = tmp_path / "edges.txt"
    for trial in range(200):
        n = int(rng.integers(1, 30))
        path.write_bytes(random_edge_text(rng, n).encode())
        ref = ref_edges(path)
        assert np.array_equal(_load_edge_list(path), ref)
        directed = bool(trial % 2)
        g = load_graph(path, directed=directed)
        assert g.n == (int(ref.max()) + 1 if ref.size else 0)
        edges, ids, n_logical = ref_canonical(g.n, ref, directed)
        assert g.edges.dtype == np.int64 and g.edges.shape == edges.shape
        assert np.array_equal(g.edges, edges)
        assert np.array_equal(g.logical_edge_ids, ids)
        assert g.n_logical == n_logical


def test_graph_build_matches_unique_reference(rng):
    # duplicates, self-loops and empty lists, directed and undirected
    for trial in range(400):
        n = int(rng.integers(1, 40))
        raw = rng.integers(0, n, size=(0 if trial < 4 else int(rng.integers(1, 3 * n)), 2))
        raw = np.vstack([raw, raw[rng.random(len(raw)) < 0.3]])
        directed = bool(trial % 2)
        g = Graph.build(n=n, edges=raw, directed=directed)
        edges, ids, n_logical = ref_canonical(n, raw, directed)
        assert g.edges.dtype == np.int64 and g.edges.shape == edges.shape
        assert np.array_equal(g.edges, edges)
        assert g.logical_edge_ids.dtype == np.int64
        assert np.array_equal(g.logical_edge_ids, ids)
        assert g.n_logical == n_logical


def test_features_match_reference_bitwise(tmp_path, rng):
    path = tmp_path / "feats.csv"
    for _ in range(100):
        path.write_bytes(random_feature_text(rng, int(rng.integers(1, 12)),
                                             int(rng.integers(1, 6))).encode())
        got, ref = _load_feature_csv(path), ref_features(path)
        assert got.shape == ref.shape and got.dtype == ref.dtype
        assert np.array_equal(got.view(np.int64), ref.view(np.int64))


def test_labels_match_reference(tmp_path, rng):
    path = tmp_path / "labels.csv"
    for _ in range(50):
        path.write_text(random_label_text(rng, int(rng.integers(1, 20))))
        got, ref = _load_label_csv(path), ref_labels(path)
        assert got.dtype == np.int64 and np.array_equal(got, ref)


def test_votes_match_reference(tmp_path, rng):
    path = tmp_path / "votes.csv"
    for _ in range(100):
        path.write_text(random_vote_text(rng))
        ref = ref_votes(path)
        table = load_votes(path)
        assert table.votes == ref
        assert list(table.votes) == sorted(ref)        # the view ascends, not the file
        assert all(list(table.votes[v]) == sorted(ref[v]) for v in ref)
        assert table.classes == 1 + max((max(d.values()) for d in ref.values()), default=-1)


def test_empty_files_match_reference(tmp_path):
    for text in ["", "\n", "  \n\n", "# only a comment\n"]:
        path = tmp_path / "edges.txt"
        path.write_text(text)
        assert np.array_equal(_load_edge_list(path), ref_edges(path))
        assert load_graph(path).n == 0
    for text in ["", "\n\n"]:
        path = tmp_path / "f.csv"
        path.write_text(text)
        assert _load_feature_csv(path).shape == ref_features(path).shape
        assert _load_label_csv(path).shape == ref_labels(path).shape
        assert load_votes(path).votes == ref_votes(path) == {}
    path.write_text("node_id,sample_index,class\n")
    assert load_votes(path).votes == {}


# ---------------------------------------------------------------------------
# malformed files: same exception, same message, same line

MALFORMED = [
    # (file kind, file text)
    ("edges", "0 1\n1 2 3\n"),                       # wrong field count
    ("edges", "0 1\n2\n"),
    ("edges", "0 1\n\n\n1 x\n"),                     # non-integer after blank lines
    ("edges", "0 1\n1.0 2\n"),
    ("edges", "0 1\n\t\n2 -3\n"),                    # negative index
    ("edges", "0 1\n1 2 # inline comment\n"),        # inline comment
    ("edges", "0 1\n1 2#3\n"),
    ("edges", "0 1\r\n1 2\r\nx 3\r\n"),
    ("edges", "# header\n  0 1\n0 0x10\n"),
    ("features", "1,2\n3,4,5\n"),                    # ragged row
    ("features", "1,2\n\n3\n"),
    ("features", "1,2\n3,abc\n"),                    # non-numeric value
    ("features", "1,2\n3,\n"),
    ("features", "1,2\n  \n3,4\n5,6,7\n"),           # whitespace line, then ragged
    ("features", "# not a comment\n1,2\n"),
    ("labels", "0\n1\nx\n"),
    ("labels", "0\n\n1 2\n"),
    ("labels", "0\n1,2\n"),
    ("votes", "node_id,sample_index,class\n0,0,1\n0,1\n"),   # wrong field count
    ("votes", "0,0,1\n0,1,x\n"),                    # non-integer
    ("votes", "0,0,1\n0,1,1.0\n"),
    ("votes", "\nnode_id,sample_index,class\n0,0,1\n"),      # header not on line 1
    ("votes", "node_id,sample_index,class\nnode_id,sample_index,class\n"),
    ("votes", "0,0,1\n0,1,1\n\n0,0,2\n"),           # duplicate: second line named
    ("votes", "0,0,1\n1,0,1\n0,0,1\n1,0,x\n"),      # duplicate before a bad field
    ("votes", "0,0,1\n0,1,1,\n"),
]

LOADERS = {
    "edges": (_load_edge_list, ref_edges),
    "features": (_load_feature_csv, ref_features),
    "labels": (_load_label_csv, ref_labels),
    "votes": (load_votes, ref_votes),
}


@pytest.mark.parametrize("kind,text", MALFORMED)
def test_malformed_file_names_the_same_line(tmp_path, kind, text):
    path = tmp_path / "input.txt"
    path.write_bytes(text.encode())
    new, ref = LOADERS[kind]
    with pytest.raises(Exception) as expected:
        ref(path)
    with pytest.raises(type(expected.value)) as got:
        new(path)
    assert type(got.value) is type(expected.value)
    assert str(got.value) == str(expected.value)
    assert re.search(r"line \d+", str(got.value))


@pytest.mark.parametrize("kind,text,line", [
    ("edges", "0 1\n1_0 2\n", 2),
    ("edges", "0 \u0663\n", 1),
    ("edges", "0 1\n2 99999999999999999999\n", 2),
    ("features", "1,2\n1_0,2\n", 2),
    ("labels", "1\n\n\u0663\n", 3),
    ("votes", "0,0,1\n0,1_0,1\n", 2),
    ("votes", "0,0,99999999999999999999\n", 1),
])
def test_numbers_numpy_does_not_read_name_the_line(tmp_path, kind, text, line):
    # int()/float() accept "_" separators, non-ASCII digits and integers past
    # int64; the loaders do not, and name the line
    path = tmp_path / "input.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises((GraphParseError, VoteFormatError), match=f"line {line}: "):
        LOADERS[kind][0](path)


@pytest.mark.parametrize("text,line", [
    ("0,0,1\n0,1,-1\n", 2),                # negative class
    ("node_id,sample_index,class\n0,0,1\n-2,1,1\n", 3),   # negative node
    ("0,0,1\n\n0,-1,1\n", 3),              # negative sample index
])
def test_negative_vote_field_is_rejected(tmp_path, text, line):
    path = tmp_path / "votes.csv"
    path.write_text(text)
    with pytest.raises(VoteFormatError, match=f"line {line}: negative"):
        load_votes(path)


@pytest.mark.parametrize("text,line", [
    ("0\n2.7\n", 2), ("0\n\n-0.5\n", 3), ("nan\n", 1), ("1\ninf\n", 2), ("1e30\n", 1),
])
def test_fractional_or_non_finite_label_is_rejected(tmp_path, text, line):
    path = tmp_path / "labels.csv"
    path.write_text(text)
    with pytest.raises(GraphParseError, match=f"line {line}: non-integer label"):
        _load_label_csv(path)


def test_integral_float_labels_are_accepted(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("1.0\n-1\n2e0\n 3 \n")
    assert _load_label_csv(path).tolist() == [1, -1, 2, 3]


# ---------------------------------------------------------------------------
# tables of one-digit fields, read from their bytes


def random_digit_text(rng, trial):
    rows, cols = [(1, int(rng.integers(1, 200))), (int(rng.integers(1, 40)), 1),
                  (int(rng.integers(1, 40)), int(rng.integers(1, 200)))][trial % 3]
    x = rng.integers(0, int(rng.choice([2, 10])), (rows, cols))
    text = "\n".join(",".join(map(str, row)) for row in x.tolist())
    return x, text + ("\n" if rng.random() < 0.8 else "")


def test_digit_tables_match_reference_bitwise(tmp_path, rng):
    path = tmp_path / "table.csv"
    served = 0
    for trial in range(200):
        x, text = random_digit_text(rng, trial)
        path.write_text(text)
        served += graph._digit_table(text, ",") is not None
        got = _load_feature_csv(path)
        for ref in (ref_features(path), np.loadtxt(path, delimiter=",", ndmin=2)):
            assert got.dtype == ref.dtype and got.shape == ref.shape
            assert np.array_equal(got.view(np.int64), ref.view(np.int64))
        assert np.array_equal(got, x)
        ints = read_table(text, np.int64, delimiter=",")
        ref = np.loadtxt(io.StringIO(text), dtype=np.int64, delimiter=",", ndmin=2)
        assert ints.dtype == ref.dtype and np.array_equal(ints, ref)
        if x.shape[1] == 1:
            labels = _load_label_csv(path)
            assert labels.dtype == np.int64 and np.array_equal(labels, ref_labels(path))
            column = read_table(text, np.int64, comments="#")
            ref = np.loadtxt(io.StringIO(text), dtype=np.int64, comments="#", ndmin=2)
            assert column.dtype == ref.dtype and np.array_equal(column, ref)
    assert served > 120         # the texts with a final newline


DELIMITER = {"edges": None, "features": ",", "labels": None, "votes": ","}

# (file kind, file text, whether the byte pass reads it)
NEAR_DIGIT_TABLES = [
    ("features", "1,0\n\n0,1\n", False),             # blank line
    ("features", "1,0\n  \n0,1\n", False),           # whitespace line
    ("features", "1,0 \n0,1\n", False),              # trailing space
    ("features", "-0,1\n1,0\n", False),              # sign: loadtxt gives -0.0
    ("features", "+1,0\n1,0\n", False),
    ("features", "10,1\n1,0\n", False),              # two-digit field
    ("features", "1,,0\n1,0,1\n", False),            # empty field
    ("features", '"1",0\n1,0\n', False),             # quoted field
    ("features", "# 1,0\n1,0\n", False),             # no comments in a CSV
    ("features", "\ufeff1,0\n0,1\n", False),         # byte order mark
    ("features", "1,0\n1,0,1\n", False),             # ragged rows
    ("features", "1,0,1\n1,0\n0,1\n", False),        # ragged, total length a multiple
    ("features", "1;0\n0;1\n", False),               # another separator
    ("features", "1,0\n0,1", False),                 # no final newline
    ("features", "1,0\r\n0,1\r\n", True),            # CR LF reads as LF
    ("labels", "1\n\n2\n", False),
    ("labels", "1\n 2\n", False),
    ("labels", "1 \n2\n", False),
    ("labels", "-0\n1\n", False),
    ("labels", "-1\n2\n", False),                    # unlabelled node
    ("labels", "10\n1\n", False),
    ("labels", "# 1\n2\n", False),
    ("labels", "\ufeff1\n2\n", False),
    ("labels", "1\n2", False),
    ("labels", "1\n2\n", True),
    ("edges", "0 1\n1 2\n", False),                  # whitespace: one column only
    ("edges", "# 0 1\n1\n", False),
    ("edges", "0\n1\n", True),                       # one column, an error after parsing
    ("votes", "0,0,1\n0,1,2\n1,0,1\n", True),
    ("votes", "0,0,1\n1,0,1\n0,0,2\n", True),        # duplicate pair, named after parsing
    ("votes", "0,0,1\n0,1\n", False),
    ("votes", "0,0,1\n0,1,-1\n", False),
]


def _outcome(load, path):
    """A loader's result as comparable data: arrays by their bits, or the error raised."""
    try:
        got = load(path)
    except Exception as exc:
        return type(exc), str(exc)
    if isinstance(got, np.ndarray):
        return got.dtype, got.shape, got.view(np.int64).tolist()
    return [(v, list(d.items())) for v, d in got.votes.items()]


@pytest.mark.parametrize("kind,text,served", NEAR_DIGIT_TABLES)
def test_near_digit_tables_read_as_without_the_byte_pass(tmp_path, monkeypatch,
                                                        kind, text, served):
    # the byte pass is the one difference from ``np.loadtxt`` parsing, so a
    # loader without it gives what the loaders gave before it existed
    path = tmp_path / "input.txt"
    path.write_bytes(text.encode())
    assert (graph._digit_table(graph.read_text(path), DELIMITER[kind]) is not None) == served
    load = LOADERS[kind][0]
    got = _outcome(load, path)
    monkeypatch.setattr(graph, "_digit_table", lambda text, delimiter: None)
    assert got == _outcome(load, path)


def test_benchmark_feature_file_is_read_from_its_bytes(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    workloads.WORKLOADS["certify-gcn"](0, tmp_path)
    features = ref_features(tmp_path / "features.csv")
    labels = ref_labels(tmp_path / "labels.csv")

    def refuse(*args, **kwargs):
        raise AssertionError("np.loadtxt called")

    monkeypatch.setattr(np, "loadtxt", refuse)
    got = _load_feature_csv(tmp_path / "features.csv")
    assert got.shape == (2708, 128)
    assert np.array_equal(got.view(np.int64), features.view(np.int64))
    assert np.array_equal(_load_label_csv(tmp_path / "labels.csv"), labels)


def test_crlf_digit_files_are_read_from_their_bytes(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    workloads.WORKLOADS["certify-gcn"](0, tmp_path)
    for name in ("features.csv", "labels.csv"):
        lf = (tmp_path / name).read_bytes()
        (tmp_path / f"crlf_{name}").write_bytes(lf.replace(b"\n", b"\r\n"))
    features = ref_features(tmp_path / "features.csv")
    labels = ref_labels(tmp_path / "labels.csv")

    def refuse(*args, **kwargs):
        raise AssertionError("np.loadtxt called")

    monkeypatch.setattr(np, "loadtxt", refuse)
    got = _load_feature_csv(tmp_path / "crlf_features.csv")
    assert np.array_equal(got.view(np.int64), features.view(np.int64))
    assert np.array_equal(_load_label_csv(tmp_path / "crlf_labels.csv"), labels)


# ---------------------------------------------------------------------------
# no identity features until read


def test_identity_features_are_built_only_when_read(tmp_path):
    n = 5000
    path = tmp_path / "edges.txt"
    path.write_text("".join(f"{i} {i + 1}\n" for i in range(n - 1)))
    tracemalloc.start()
    try:
        g = load_graph(path)
        assert g.dim == n
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.n == n
    assert peak < 20e6            # the identity alone is 8 * n * n = 200 MB

    small = Graph.build(n=4, edges=[(0, 1), (2, 3)])
    assert small.dim == 4
    view = small.with_edges(np.ones(small.m, dtype=bool))
    assert np.array_equal(small.features, np.eye(4))
    assert small.features is small.features
    assert np.array_equal(view.features, np.eye(4))
    assert small.with_edges(np.ones(small.m, dtype=bool)).features is small.features
