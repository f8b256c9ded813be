"""Vote files parsed in place against the text route.

``load_votes`` parses the open file once with ``load_table``, and reads the
text only for the line pass that names a bad line.  The reference here is
the text route ``load_votes`` took before: the whole decoded text parsed by
``np.loadtxt``, and parsed again with its whitespace-only lines emptied
where that failed, with the line pass after that.  On every file both must
give the same table and ``votes`` view, bit for bit, or raise the same
exception with the same message, naming the same line.  The table is the
only per-row array a load keeps: the input's order is not kept.
"""

import csv
import io
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from gnncert import VoteTable, gcn, load_votes
from gnncert.graph import read_text

_BLANK_LINE = re.compile(r"^[^\S\n]+$", re.MULTILINE)


def outcome(load, path):
    """``load(path)``'s result as comparable data, or the error it raised."""
    try:
        got = load(path)
    except Exception as exc:
        return type(exc), str(exc)
    return (got.table.dtype, got.table.shape, got.table.tolist(),
            [(v, list(d.items())) for v, d in got.votes.items()])


def _text_table(text):
    for attempt in (text, _BLANK_LINE.sub("", text)):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                return np.loadtxt(io.StringIO(attempt), dtype=np.int64, delimiter=",",
                                  comments=None, ndmin=2, quotechar='"')
        except ValueError:
            pass
    return None


def text_route(path):
    """The votes of ``path`` read from its whole decoded text, then the line pass."""
    text = read_text(path)
    first, _, rest = text.partition("\n")
    table = _text_table(rest if gcn._header_row(next(csv.reader([first]), [])) else text)
    if table is not None and (table.shape[0] == 0 or (table.shape[1] == 3 and table.min() >= 0)):
        try:
            return VoteTable(rows=table)
        except gcn.VoteFormatError:
            pass
    with pytest.MonkeyPatch.context() as patch:     # no table: the line pass alone
        patch.setattr(gcn, "load_table", lambda *args, **kwargs: None)
        return load_votes(path)


def both_routes(path):
    """``load_votes``'s outcome, and the text route's."""
    return outcome(load_votes, path), outcome(text_route, path)


FILES = [
    b"node_id,sample_index,class\r\n0,0,1\r\n0,1,2\r\n",
    b"node_id,sample_index,class\r0,0,1\r0,1,2\r",
    b"0,0,1\n0,1,2",
    b"\xef\xbb\xbfnode_id,sample_index,class\n0,0,1\n",
    b"\xef\xbb\xbf0,0,1\n0,1,2\n",
    b"node_id,sample_index,class\n0,0,1\n\n  \n0,1,2\n",
    b'node_id,sample_index,class\n"0","0",1\n0," 1",2\n',
    b'"node_id",sample_index,class\n0,0,1\n',
    b"0,0,1\n1,0,1\n",                      # no header
    b"+0,0,1\n1,0,1\n",                     # a signed first row is data
    b"-0,0,1\n1,0,1\n",
    b"node_id,sample_index,class\n",
    b"node_id,sample_index,class",
    b"",
    b"\n0,0,1\n",
    b"3,1,0\n0,2,1\n3,0,2\n0,0,1\n",        # out of order: sorted once
    b"0,0,1\n0,1,1\n\n0,0,2\n",             # repeated pair
    b"0,0,1\n0,1,-1\n",
    b"0,0,1\n0,1\n",
    b"0,0,1\n0,1,x\n",
    b"0,0,1 # x\n",
    b"node_id,sample_index,class\n0,0,\xff\n",
    b"\xff,0,1\n",                          # not UTF-8 on the first line
]


@pytest.mark.parametrize("data", FILES)
def test_in_place_parse_gives_what_the_text_gives(tmp_path, data):
    path = tmp_path / "votes.csv"
    path.write_bytes(data)
    got, text_route = both_routes(path)
    assert got == text_route


def test_well_formed_files_are_parsed_without_reading_the_text(tmp_path, monkeypatch):
    def refuse(path):
        raise AssertionError("text read")

    monkeypatch.setattr(gcn, "read_text", refuse)
    path = tmp_path / "votes.csv"
    path.write_bytes(b"node_id,sample_index,class\r\n0,0,1\r\n0,1,2\r\n")
    assert load_votes(path).votes == {0: {0: 1, 1: 2}}
    path.write_bytes(b'"node_id",sample_index,class\r0,"0",1\r1,0,2')
    assert load_votes(path).votes == {0: {0: 1}, 1: {0: 2}}
    path.write_bytes(b"+0,0,1\n")
    assert load_votes(path).votes == {0: {0: 1}}


def test_a_byte_order_mark_does_not_make_a_header(tmp_path):
    path = tmp_path / "votes.csv"
    path.write_bytes(b"\xef\xbb\xbf0,0,1\n0,1,2\n")
    with pytest.raises(gcn.VoteFormatError, match="line 1: non-integer field"):
        load_votes(path)
    path.write_bytes(b"\xef\xbb\xbfnode_id,sample_index,class\n0,0,1\n0,1,2\n")
    assert load_votes(path).votes == {0: {0: 1, 1: 2}}


def test_out_of_order_votes_are_sorted_as_before(tmp_path):
    rows = np.array([[3, 1, 0], [0, 2, 1], [3, 0, 2], [0, 0, 1], [1, 5, 3]])
    path = tmp_path / "votes.csv"
    path.write_text("node_id,sample_index,class\n"
                    + "".join(f"{v},{i},{c}\n" for v, i, c in rows.tolist()))
    table = load_votes(path)
    assert table.table.tolist() == rows[[3, 1, 4, 2, 0]].tolist()
    assert [(v, list(d.items())) for v, d in table.votes.items()] == [
        (0, [(0, 1), (2, 1)]), (1, [(5, 3)]), (3, [(0, 2), (1, 0)])]


def test_ordered_votes_are_kept_as_given():
    rows = np.array([[0, 0, 1], [0, 1, 2], [0, 3, 0], [2, 0, 1], [5, 1, 1]], dtype=np.int64)
    table = VoteTable(rows=rows)
    assert np.shares_memory(table.table, rows)
    assert table.votes == {0: {0: 1, 1: 2, 3: 0}, 2: {0: 1}, 5: {1: 1}}
    with pytest.raises(gcn.VoteFormatError, match="node 0, sample 1"):
        VoteTable(rows=np.array([[0, 0, 1], [0, 1, 2], [0, 1, 0]]))
    for unordered in ([[0, 1, 2], [0, 0, 1]], [[1, 0, 0], [0, 5, 1]]):
        rows = np.array(unordered)
        table = VoteTable(rows=rows)
        assert table.table.tolist() == rows[::-1].tolist()


def test_ordered_vote_file_loads_in_under_twice_its_table(tmp_path):
    nodes, samples = 500, 400
    path = tmp_path / "votes.csv"
    path.write_text("node_id,sample_index,class\n" + "".join(
        f"{v},{i},{(v * 7 + i) % 5}\n" for v in range(nodes) for i in range(samples)))
    table_bytes = nodes * samples * 3 * 8
    tracemalloc.start()
    try:
        table = load_votes(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.table.shape == (nodes * samples, 3)
    assert peak < 2 * table_bytes, f"peak {peak / table_bytes:.2f}x the table"


def test_a_loaded_vote_table_keeps_one_per_row_array(tmp_path):
    # what stays traced after the load is the table itself, not a row order beside it
    nodes, samples = 500, 400
    path = tmp_path / "votes.csv"
    path.write_text("node_id,sample_index,class\n" + "".join(
        f"{v},{i},{(v * 7 + i) % 5}\n" for v in range(nodes) for i in range(samples)))
    table_bytes = nodes * samples * 3 * 8
    tracemalloc.start()
    try:
        table = load_votes(path)
        current = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert table.table.shape == (nodes * samples, 3)
    assert current < 1.1 * table_bytes, f"{current / table_bytes:.2f}x the table kept"
