"""Round-trip and error-path tests for the on-disk formats."""

import ast
import csv
import importlib
import importlib.util
import inspect
import json
import re
import shutil
import struct
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from corestream import CoresetBlock, CoresetTree, DataBlock
from corestream import cli, io
from corestream.io import FormatError


def feature_block(rows: int, dim: int, seed: int = 0) -> DataBlock:
    rng = np.random.default_rng(seed)
    return DataBlock(rng.standard_normal((rows, dim)))


def grown_tree(points: int, n: int, dim: int = 3, seed: int = 1) -> CoresetTree:
    tree = CoresetTree(n, dim)
    rng = np.random.default_rng(seed)
    for row in rng.standard_normal((points, dim)):
        tree.push_point(row)
    return tree


def test_text_features_round_trip_exactly(tmp_path):
    path = str(tmp_path / "feat.txt")
    block = feature_block(7, 4)
    io.write_features(path, block)
    back = io.read_features(path)
    assert np.array_equal(back.values, block.values)


def test_binary_features_round_trip_exactly(tmp_path):
    path = str(tmp_path / "feat.bin")
    block = feature_block(9, 5, seed=2)
    io.write_features(path, block, binary=True)
    back = io.read_features(path)
    assert np.array_equal(back.values, block.values)
    with open(path, "rb") as fh:
        assert fh.read(4) == b"CSTK"


def test_reader_sniffs_encoding_by_magic(tmp_path):
    text_path = str(tmp_path / "a")
    bin_path = str(tmp_path / "b")
    block = feature_block(3, 2, seed=3)
    io.write_features(text_path, block)
    io.write_features(bin_path, block, binary=True)
    assert np.array_equal(io.read_features(text_path).values, io.read_features(bin_path).values)


def test_text_parse_errors_name_the_line(tmp_path):
    path = tmp_path / "bad.txt"

    path.write_text("")
    with pytest.raises(FormatError, match="line 1"):
        io.read_features(str(path))

    path.write_text("hello world\n")
    with pytest.raises(FormatError, match="line 1"):
        io.read_features(str(path))

    path.write_text("dim=x rows=2\n")
    with pytest.raises(FormatError, match="line 1"):
        io.read_features(str(path))

    path.write_text("dim=3 rows=2\n1 2 3\n")
    with pytest.raises(FormatError, match="line 3"):
        io.read_features(str(path))

    path.write_text("dim=3 rows=1\n1 2\n")
    with pytest.raises(FormatError, match="line 2"):
        io.read_features(str(path))

    path.write_text("dim=3 rows=1\n1 2 frog\n")
    with pytest.raises(FormatError, match="line 2"):
        io.read_features(str(path))

    path.write_text("dim=3 rows=0\n")
    with pytest.raises(FormatError, match="zero rows"):
        io.read_features(str(path))


@pytest.mark.parametrize(
    "text, line",
    [
        ("dim=1000000000 rows=1000000000\n", "line 2: file ends after 0 of 1000000000 rows"),
        ("dim=3 rows=1\n1 2 3\n4 5 6\n7 8 9\n", "line 3: data past the 1 rows declared"),
    ],
    ids=["header-promises-more-than-the-file", "rows-past-the-header-count"],
)
def test_text_row_count_must_match_the_header(tmp_path, capsys, text, line):
    # A bad count is a format error (exit 2) naming the line, never an
    # allocation sized by the header or rows silently dropped.
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(FormatError, match=line):
        io.read_features(str(path))
    code = cli.main(
        [
            "tree-build", "--in", str(path), "--n", "2",
            "--snapshot-out", str(tmp_path / "s.json"),
            "--telemetry-out", str(tmp_path / "t.csv"),
        ]
    )
    assert code == 2
    assert line in capsys.readouterr().err


def test_binary_parse_errors(tmp_path):
    path = tmp_path / "bad.bin"

    path.write_bytes(b"CSTK\x01\x00")
    with pytest.raises(FormatError, match="truncated header"):
        io.read_features(str(path))

    path.write_bytes(b"CSTK" + struct.pack("<IQI", 9, 1, 2) + b"\x00" * 16)
    with pytest.raises(FormatError, match="version"):
        io.read_features(str(path))

    path.write_bytes(b"CSTK" + struct.pack("<IQI", 1, 2, 2) + b"\x00" * 8)
    with pytest.raises(FormatError, match="payload"):
        io.read_features(str(path))

    path.write_bytes(b"CSTK" + struct.pack("<IQI", 1, 0, 2))
    with pytest.raises(FormatError, match="zero rows"):
        io.read_features(str(path))


def traced_peak(call) -> int:
    """The peak bytes tracemalloc sees while call() runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_binary_reader_holds_the_payload_once(tmp_path):
    # One array of the payload plus the finite check's one-byte-per-entry
    # mask; reading the bytes first and copying them would hold it twice.
    path = str(tmp_path / "f.bin")
    block = feature_block(2000, 128)
    io.write_features(path, block, binary=True)
    peak = traced_peak(lambda: io.read_features(path))
    assert peak <= 1.25 * block.values.nbytes


def test_text_reader_holds_the_payload_once(tmp_path):
    # One compact buffer of the values, which the returned array wraps, plus
    # its growth slack and the finite check's mask; rows kept as lists of
    # Python floats hold about six times the payload.
    path = str(tmp_path / "f.txt")
    block = feature_block(2000, 128)
    io.write_features(path, block)
    peak = traced_peak(lambda: io.read_features(path))
    assert peak <= 1.5 * block.values.nbytes


def test_binary_writer_copies_no_payload(tmp_path):
    block = feature_block(2000, 128)
    peak = traced_peak(lambda: io.write_features(str(tmp_path / "f.bin"), block, binary=True))
    assert peak <= 0.25 * block.values.nbytes


def test_binary_header_cannot_size_an_allocation(tmp_path):
    path = tmp_path / "big.bin"
    path.write_bytes(b"CSTK" + struct.pack("<IQI", 1, 2**40, 2) + b"\x00" * 16)
    message = "byte 36: payload holds 16 bytes, header promises 17592186044416"

    def read():
        with pytest.raises(FormatError, match=message):
            io.read_features(str(path))

    assert traced_peak(read) < 1 << 20


def test_binary_short_read_is_refused(tmp_path, monkeypatch):
    # The file holds 3 of the 4 rows its header promises, but fstat is
    # made to report the full size, as if the file shrank after the check.
    path = tmp_path / "short.bin"
    path.write_bytes(b"CSTK" + struct.pack("<IQI", 1, 4, 2) + b"\x00" * 48)
    monkeypatch.setattr(io.os, "fstat", lambda fd: SimpleNamespace(st_size=20 + 64))
    with pytest.raises(FormatError, match="byte 68: payload holds 48 bytes, header promises 64"):
        io.read_features(str(path))


def test_binary_reader_refuses_non_finite_entries(tmp_path):
    path = tmp_path / "nan.bin"
    payload = np.array([[1.0, np.nan], [2.0, 3.0]], dtype="<f8").tobytes()
    path.write_bytes(b"CSTK" + struct.pack("<IQI", 1, 2, 2) + payload)
    with pytest.raises(ValueError, match="matrix entries must be finite"):
        io.read_features(str(path))


def test_binary_reader_returns_a_read_only_block(tmp_path):
    path = str(tmp_path / "f.bin")
    io.write_features(path, feature_block(3, 2), binary=True)
    values = io.read_features(path).values
    assert values.dtype == np.float64 and not values.flags.writeable
    with pytest.raises(ValueError):
        values[0, 0] = 1.0


def test_coreset_block_round_trip(tmp_path):
    path = str(tmp_path / "block.json")
    rng = np.random.default_rng(4)
    cb = CoresetBlock(
        block=DataBlock(rng.standard_normal((3, 4))), c=0.125, source_rows=12
    )
    io.write_coreset(path, cb)
    back = io.read_coreset(path)
    assert np.array_equal(back.block.values, cb.block.values)
    assert back.c == cb.c
    assert back.source_rows == 12


def test_coreset_reader_rejects_foreign_documents(tmp_path):
    path = tmp_path / "x.json"
    path.write_text('{"format": "something-else"}')
    with pytest.raises(FormatError, match="not a coreset-block"):
        io.read_coreset(str(path))
    path.write_text("{not json")
    with pytest.raises(FormatError, match="line 1"):
        io.read_coreset(str(path))
    path.write_text('{"format": "coreset-block", "c": -1, "source_rows": 2, "values": [[1.0]]}')
    with pytest.raises(FormatError):
        io.read_coreset(str(path))


@pytest.mark.parametrize("doc", ["[1, 2]", '"x"', "3", "null"])
def test_json_readers_refuse_a_document_that_is_not_an_object(tmp_path, doc):
    path = tmp_path / "x.json"
    path.write_text(doc)
    with pytest.raises(FormatError, match=re.escape(f"{path}: not a coreset-block document")):
        io.read_coreset(str(path))
    with pytest.raises(FormatError, match=re.escape(f"{path}: not a coreset-tree-snapshot document")):
        io.read_snapshot(str(path))


def test_snapshot_round_trip_is_exact(tmp_path):
    path = str(tmp_path / "snap.json")
    tree = grown_tree(23, 4)
    view = tree.snapshot()
    io.write_snapshot(path, view)
    back = io.read_snapshot(path)
    replace(back)
    assert back.n == view.n
    assert back.dim == view.dim
    assert back.points_seen == view.points_seen
    assert back.leaves_seen == view.leaves_seen
    assert back.merge_count == view.merge_count
    assert back.max_live_nodes == view.max_live_nodes
    assert len(back.nodes) == len(view.nodes)
    for got, want in zip(back.nodes, view.nodes):
        assert got.level == want.level
        assert got.span == want.span
        assert np.array_equal(got.summary.block.values, want.summary.block.values)
        assert got.summary.c == want.summary.c
        assert got.summary.source_rows == want.summary.source_rows
    assert np.array_equal(back.pending, view.pending)
    with pytest.raises(ValueError):
        back.pending[0, 0] = 1.0


def test_snapshot_reader_rejects_inconsistent_documents(tmp_path):
    import json

    path = tmp_path / "snap.json"
    tree = grown_tree(12, 4)
    io.write_snapshot(str(path), tree.snapshot())
    doc = json.loads(path.read_text())
    doc["points_seen"] += 1
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError, match="inconsistent"):
        io.read_snapshot(str(path))

    path.write_text('{"format": "nope"}')
    with pytest.raises(FormatError, match="not a coreset-tree-snapshot"):
        io.read_snapshot(str(path))

    doc.pop("nodes")
    doc["format"] = "coreset-tree-snapshot"
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError, match="bad snapshot"):
        io.read_snapshot(str(path))


def tampered_snapshot(tmp_path, tamper) -> str:
    """Write a valid dim-3 snapshot with pending rows, then edit its JSON."""
    import json

    path = tmp_path / "snap.json"
    tree = grown_tree(23, 4)
    io.write_snapshot(str(path), tree.snapshot())
    io.read_snapshot(str(path))
    doc = json.loads(path.read_text())
    tamper(doc)
    path.write_text(json.dumps(doc))
    return str(path)


def test_snapshot_reader_rejects_tampered_merge_count(tmp_path):
    def tamper(doc):
        doc["merge_count"] += 1

    with pytest.raises(FormatError, match="merge_count"):
        io.read_snapshot(tampered_snapshot(tmp_path, tamper))


@pytest.mark.parametrize("value", [0, 99])
def test_snapshot_reader_rejects_tampered_max_live_nodes(tmp_path, value):
    def tamper(doc):
        doc["max_live_nodes"] = value

    with pytest.raises(FormatError, match="max_live_nodes"):
        io.read_snapshot(tampered_snapshot(tmp_path, tamper))


@pytest.mark.parametrize(
    "field, value",
    [
        ("points_seen", 23.0),
        ("points_seen", 11.7),
        ("points_seen", "23"),
        ("leaves_seen", 5.0),
        ("merge_count", True),
        ("max_live_nodes", "3"),
        ("n", 4.2),
        ("n", 4.0),
        ("dim", "3"),
        ("nodes.0.level", 2.0),
        ("nodes.0.span.1", 16.0),
        ("nodes.0.span.0", "0"),
        ("nodes.0.rows", 4.0),
        ("nodes.0.dim", "3"),
        ("nodes.0.source_rows", 16.5),
        ("nodes.0.c", "0.0"),
    ],
)
def test_snapshot_reader_rejects_non_integer_fields(tmp_path, field, value):
    # Counters and shapes must be JSON integers and c a JSON number; a
    # reader that coerced them would load a tampered file as a valid one.
    *path, last = [int(key) if key.isdigit() else key for key in field.split(".")]

    def tamper(doc):
        for key in path:
            doc = doc[key]
        doc[last] = value

    with pytest.raises(FormatError, match="must be a JSON"):
        io.read_snapshot(tampered_snapshot(tmp_path, tamper))


@pytest.mark.parametrize("key", ["n", "dim"])
def test_snapshot_reader_rejects_a_zero_width_tree(tmp_path, key):
    path = tmp_path / "snap.json"
    io.write_snapshot(str(path), CoresetTree(4, 3).snapshot())
    doc = json.loads(path.read_text())
    doc[key] = 0
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError, match="need n >= 1 and dim >= 1"):
        io.read_snapshot(str(path))


def test_snapshot_reader_rejects_a_node_of_the_wrong_dim(tmp_path):
    def tamper(doc):
        node = doc["nodes"][0]
        node["values"] = [row + [0.0] for row in node["values"]]
        node["dim"] = 4

    with pytest.raises(FormatError, match="dim 4"):
        io.read_snapshot(tampered_snapshot(tmp_path, tamper))


def test_snapshot_reader_rejects_pending_of_the_wrong_dim(tmp_path):
    def tamper(doc):
        assert doc["pending"]
        doc["pending"] = [row + [0.0] for row in doc["pending"]]

    with pytest.raises(FormatError, match="pending rows must be shaped"):
        io.read_snapshot(tampered_snapshot(tmp_path, tamper))


@pytest.mark.parametrize("pending", [[[]], [[], []]])
def test_snapshot_reader_rejects_empty_pending_rows(tmp_path, pending):
    # Zero-width rows are rows of the wrong width, not zero pending rows.
    def tamper(doc):
        doc["pending"] = pending

    with pytest.raises(FormatError, match="pending rows must be shaped"):
        io.read_snapshot(tampered_snapshot(tmp_path, tamper))


def test_snapshot_reader_rejects_a_span_that_is_not_a_pair(tmp_path):
    def tamper(doc):
        doc["nodes"][0]["span"].append(999)

    with pytest.raises(FormatError, match="span must be a"):
        io.read_snapshot(tampered_snapshot(tmp_path, tamper))


def test_snapshot_reader_rejects_spans_that_do_not_start_at_row_0(tmp_path):
    def tamper(doc):
        for node in doc["nodes"]:
            node["span"] = [node["span"][0] + 7, node["span"][1] + 7]

    with pytest.raises(FormatError, match="from row 0"):
        io.read_snapshot(tampered_snapshot(tmp_path, tamper))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_snapshot_reader_rejects_non_finite_pending_rows(tmp_path, value):
    def tamper(doc):
        doc["pending"][0][0] = value

    with pytest.raises(FormatError, match="pending rows must be finite"):
        io.read_snapshot(tampered_snapshot(tmp_path, tamper))


def test_snapshot_reader_rejects_a_negative_node_constant(tmp_path):
    # CoresetBlock's constructor is the only check on c; TreeView's
    # has none of its own.
    def tamper(doc):
        doc["nodes"][0]["c"] = -1.0

    with pytest.raises(FormatError, match="additive constant must be finite and >= 0"):
        io.read_snapshot(tampered_snapshot(tmp_path, tamper))


def block_doc(cb: CoresetBlock) -> dict:
    return {
        "rows": cb.block.rows,
        "dim": cb.block.dim,
        "c": cb.c,
        "source_rows": cb.source_rows,
        "values": [[float(x) for x in row] for row in cb.block.values],
    }


def snapshot_doc(view) -> dict:
    return {
        "format": "coreset-tree-snapshot",
        "version": 1,
        "n": view.n,
        "dim": view.dim,
        "points_seen": view.points_seen,
        "leaves_seen": view.leaves_seen,
        "merge_count": view.merge_count,
        "max_live_nodes": view.max_live_nodes,
        "nodes": [
            {"level": node.level, "span": list(node.span), **block_doc(node.summary)}
            for node in view.nodes
        ],
        "pending": [[float(x) for x in row] for row in view.pending],
    }


def rows_on_lines(doc) -> str:
    """json.dumps(doc, indent=2) with each row of a matrix (a non-empty
    list of lists) on one line, as json.dumps writes the row alone."""
    rows = []

    def mark(value):
        if type(value) is dict:
            return {key: mark(item) for key, item in value.items()}
        if type(value) is list and value and type(value[0]) is list:
            rows.extend(value)
            return [f"\0row {i}" for i in range(len(rows) - len(value), len(rows))]
        if type(value) is list:
            return [mark(item) for item in value]
        return value

    text = json.dumps(mark(doc), indent=2)
    return re.sub(r'"\\u0000row (\d+)"', lambda m: json.dumps(rows[int(m.group(1))]), text)


def block_bits(cb: CoresetBlock):
    values = cb.block.values
    return cb.c.hex(), cb.source_rows, values.dtype.str, values.shape, values.tobytes()


def view_bits(view):
    counters = (view.n, view.dim, view.points_seen, view.leaves_seen, view.merge_count, view.max_live_nodes)
    nodes = [(node.level, node.span, *block_bits(node.summary)) for node in view.nodes]
    pending = view.pending
    return counters, nodes, pending.dtype.str, pending.shape, pending.tobytes()


@pytest.mark.parametrize(
    "n, dim, points",
    [(4, 5, 31), (128, 256, 3109), (64, 16, 849), (32, 64, 6413), (8, 4, 64), (1, 2, 37), (4, 3, 0)],
)
def test_snapshot_and_block_files_are_indented_json(tmp_path, n, dim, points):
    # The writer encodes matrices row by row: the file is what
    # json.dump(..., indent=2) writes with each matrix row one compact
    # value, with or without pending rows and nodes.  Files in the older
    # layout, every number on its own line, read to the same bits.
    rng = np.random.default_rng(n + dim)
    tree = CoresetTree(n, dim)
    tree.push_rows(rng.standard_normal((points, dim)) * 0.97 ** np.arange(dim))
    view = tree.snapshot()
    path, old = tmp_path / "snap.json", tmp_path / "old.json"
    io.write_snapshot(str(path), view)
    assert path.read_bytes() == (rows_on_lines(snapshot_doc(view)) + "\n").encode()
    old.write_text(json.dumps(snapshot_doc(view), indent=2) + "\n")
    assert view_bits(io.read_snapshot(str(path))) == view_bits(view)
    assert view_bits(io.read_snapshot(str(old))) == view_bits(view)
    for node in view.nodes[:1]:
        io.write_coreset(str(path), node.summary)
        want = {"format": "coreset-block", "version": 1, **block_doc(node.summary)}
        assert path.read_bytes() == (rows_on_lines(want) + "\n").encode()
        old.write_text(json.dumps(want, indent=2) + "\n")
        assert block_bits(io.read_coreset(str(path))) == block_bits(node.summary)
        assert block_bits(io.read_coreset(str(old))) == block_bits(node.summary)


@pytest.mark.parametrize("value", ["0.054", True, [0.5]])
@pytest.mark.parametrize("where", ["nodes", "pending"])
def test_snapshot_reader_rejects_non_number_matrix_entries(tmp_path, where, value):
    # np.array(..., dtype=float) would read "0.054" as 0.054 and true as
    # 1.0; a tampered matrix entry must be refused, not coerced.
    def tamper(doc):
        matrix = doc["nodes"][0]["values"] if where == "nodes" else doc["pending"]
        matrix[0][0] = value

    with pytest.raises(FormatError, match="bad snapshot"):
        io.read_snapshot(tampered_snapshot(tmp_path, tamper))


@pytest.mark.parametrize("value", ["0.054", True, [0.5]])
def test_coreset_reader_rejects_non_number_entries(tmp_path, value):
    path = tmp_path / "block.json"
    cb = grown_tree(23, 4).snapshot().nodes[0].summary
    io.write_coreset(str(path), cb)
    doc = json.loads(path.read_text())
    doc["values"][1][2] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError, match="bad summary block"):
        io.read_coreset(str(path))


def test_telemetry_csv_shape_and_totals(tmp_path):
    path = tmp_path / "telemetry.csv"
    records = [(0, 0, 0, 1.5e-06), (1, 1, 1, 0.25), (0, 1, 1, 0.0)]
    io.write_telemetry(str(path), records)
    assert path.read_bytes() == (
        b"step,merges_this_step,cumulative_svd_count,live_nodes,push_time\r\n"
        b"0,0,0,0,1.5e-06\r\n"
        b"1,1,1,1,0.25\r\n"
        b"2,0,1,1,0.0\r\n"
    )


def test_sample_csv_has_provenance_and_footer(tmp_path):
    from corestream import hierarchical_sample

    path = tmp_path / "sample.csv"
    tree = grown_tree(10, 4)
    sample = hierarchical_sample(tree.snapshot())
    io.write_sample(str(path), sample, mode="hierarchical")
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("level,row,f0")
    assert lines[-1] == f"# mode=hierarchical rows={sample.rows.rows} limit=8"
    assert len(lines) == sample.rows.rows + 2


def test_track_csv_round_trips_values(tmp_path):
    from corestream import SyntheticStreamConfig, TrackerParams, generate_stream, track_stream

    config = SyntheticStreamConfig(dim=6, frames=24, seed=5)
    run = track_stream(generate_stream(config), config, tracker=TrackerParams(n=8))
    path = tmp_path / "run.csv"
    io.write_track_run(str(path), run)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(io.TRACK_COLUMNS)
    assert len(rows) == 1 + len(run.records)
    for row, record in zip(rows[1:], run.records):
        assert int(row[0]) == record.index
        assert int(row[1]) == record.chosen
        assert float(row[3]) == record.estimate[0]
        assert int(row[5]) == int(record.correct)
        assert int(row[6]) == record.model_points


@pytest.mark.parametrize(
    "doc, message",
    [
        ('{"dim": 16.5}', "dim must be an integer"),
        ('{"frames": 30.0}', "frames must be an integer"),
        ('{"seed": 1.5}', "seed must be an integer"),
        ('{"jitter_copies": 1.5}', "jitter_copies must be an integer"),
        ('{"arena": Infinity}', "arena must be finite"),
        ('{"noise_scale": NaN}', "noise_scale must be finite"),
        ('{"distractor_count": true}', "distractor_count must be an integer"),
        ("[1, 2]", "must be a JSON object"),
    ],
    ids=["float-dim", "float-frames", "float-seed", "float-jitter", "inf-arena",
         "nan-noise", "bool-count", "top-level-list"],
)
def test_stream_config_refuses_wrong_typed_values(tmp_path, capsys, doc, message):
    # Each case once ran as an internal error, a keyless message or a
    # silently coerced value; now it is a usage error naming its key.
    path = tmp_path / "c.json"
    path.write_text(doc)
    with pytest.raises(FormatError, match=message):
        io.read_stream_config(str(path))
    code = cli.main(["track", "--config", str(path), "--n", "4", "--out", str(tmp_path / "o")])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_bundled_stream_configs_pass_the_type_check():
    for name in ("drift_stream", "easy_stream"):
        assert io.read_stream_config(name).dim == 16


def test_bundled_configs_come_from_the_package_directory(tmp_path):
    # A copy of the package loaded under another name reads its own
    # configs, not those of the installed corestream.
    copy = tmp_path / "corestream_copy"
    shutil.copytree(Path(io.__file__).parent, copy, ignore=shutil.ignore_patterns("__pycache__"))
    config = copy / "configs" / "drift_stream.json"
    doc = json.loads(config.read_text())
    doc["frames"] += 1
    config.write_text(json.dumps(doc))
    spec = importlib.util.spec_from_file_location(
        copy.name, copy / "__init__.py", submodule_search_locations=[str(copy)]
    )
    sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(sys.modules[spec.name])
        copy_io = importlib.import_module(f"{spec.name}.io")
        assert copy_io.read_stream_config("drift_stream").frames == doc["frames"]
    finally:
        for name in [name for name in sys.modules if name.split(".")[0] == spec.name]:
            del sys.modules[name]
    assert io.read_stream_config("drift_stream").frames == doc["frames"] - 1


def test_only_io_opens_files():
    # Every file the package touches is opened in io.py; other modules
    # neither call open() nor import csv or json.
    offenders = []
    for path in sorted(Path(io.__file__).parent.glob("*.py")):
        if path.name == "io.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "open":
                offenders.append(f"{path.name}:{node.lineno}: open()")
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                modules = []
            offenders += [
                f"{path.name}:{node.lineno}: import {name}"
                for name in modules
                if name.split(".")[0] in ("csv", "json")
            ]
    assert offenders == []


def test_only_snapshot_builds_unchecked_views():
    # TreeView._trusted skips the constructor's structural check; only
    # CoresetTree.snapshot, whose views hold the tree's own state, calls it.
    calls = [
        (path.name, node.lineno)
        for path in sorted(Path(io.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", None) == "_trusted"
        and getattr(node.func.value, "id", None) == "TreeView"
    ]
    source, first = inspect.getsourcelines(CoresetTree.snapshot)
    assert calls and all(
        name == "tree.py" and first <= line < first + len(source) for name, line in calls
    ), calls
