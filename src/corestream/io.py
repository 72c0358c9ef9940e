"""File formats: feature matrices, summary blocks, tree snapshots,
stream configs, and the telemetry, sample, track, bench and comparison
tables.  Every file the package reads or writes is opened here; cli.py
leaves every file to this module.

Feature matrices travel either as text (a ``dim=<d> rows=<r>`` header
line, then one space-separated row per line) or as a little-endian
binary stream (magic ``CSTK``, u32 version, u64 rows, u32 dim, then
row-major float64).  Readers sniff the magic, so callers never state
the encoding.  A binary file is written from the array's own buffer and
read into the one array the reader returns, and a text file's values are
gathered in one compact buffer that array wraps, so reading needs its
payload once, not twice; the file size is checked against the header
before anything is allocated.  Structured state (summary blocks, tree
snapshots) is JSON with floats written in shortest round-trip form,
which keeps the files human-diffable and the round trip exact.
"""

from __future__ import annotations

import csv
import json
import os
import struct
from array import array
from importlib import resources
from itertools import chain

import numpy as np

from .blocks import CoresetBlock, DataBlock, _array
from .sampling import SampleSet
from .tracking import SyntheticStreamConfig, config_from_dict
from .tree import CoresetNode, TreeView

MAGIC = b"CSTK"
BINARY_VERSION = 1
SNAPSHOT_FORMAT = "coreset-tree-snapshot"
# Snapshot keys a reader recomputes from leaves_seen and the pending rows.
_DERIVED_COUNTERS = ("points_seen", "merge_count", "max_live_nodes")
BLOCK_FORMAT = "coreset-block"

TELEMETRY_COLUMNS = ("step", "merges_this_step", "cumulative_svd_count", "live_nodes", "push_time")
TRACK_COLUMNS = ("frame", "chosen", "score", "estimate_x", "estimate_y", "correct", "model_points")


class FormatError(ValueError):
    """A file failed to parse; the message pinpoints where."""


def write_features(path: str, block: DataBlock, binary: bool = False) -> None:
    """Write a feature matrix as text, or as the binary stream if binary is set."""
    if binary:
        with open(path, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<IQI", BINARY_VERSION, block.rows, block.dim))
            fh.write(np.ascontiguousarray(block.values, dtype="<f8").data)
        return
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"dim={block.dim} rows={block.rows}\n")
        for row in block.values:
            fh.write(" ".join(repr(float(x)) for x in row))
            fh.write("\n")


def _read_features_text(path: str) -> np.ndarray:
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        header = fh.readline()
        if not header:
            raise FormatError(f"{path}: line 1: empty file, expected a dim=/rows= header")
        parts = header.split()
        if (
            len(parts) != 2
            or not parts[0].startswith("dim=")
            or not parts[1].startswith("rows=")
        ):
            raise FormatError(
                f"{path}: line 1: malformed header {header.strip()!r}, "
                "expected 'dim=<d> rows=<r>'"
            )
        try:
            dim = int(parts[0][4:])
            rows = int(parts[1][5:])
        except ValueError:
            raise FormatError(
                f"{path}: line 1: non-integer dim or rows in {header.strip()!r}"
            ) from None
        if dim < 1 or rows < 0:
            raise FormatError(f"{path}: line 1: need dim >= 1 and rows >= 0")
        if rows == 0:
            raise FormatError(f"{path}: header declares zero rows, nothing to read")
        # Rows are collected before the count is compared, so a header
        # cannot make the reader allocate more than the file holds.  They
        # go into one compact buffer, which the returned array wraps.
        data = array("d")
        for lineno, line in enumerate(fh, start=2):
            if len(data) == rows * dim:
                raise FormatError(f"{path}: line {lineno}: data past the {rows} rows declared")
            fields = line.split()
            if len(fields) != dim:
                raise FormatError(
                    f"{path}: line {lineno}: expected {dim} values, got {len(fields)}"
                )
            try:
                data.extend(map(float, fields))
            except ValueError:
                raise FormatError(f"{path}: line {lineno}: non-numeric value") from None
    got = len(data) // dim
    if got < rows:
        raise FormatError(f"{path}: line {got + 2}: file ends after {got} of {rows} rows")
    return np.frombuffer(data).reshape(rows, dim)


def _read_features_binary(path: str) -> np.ndarray:
    header_len = len(MAGIC) + struct.calcsize("<IQI")
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(header_len)
        if len(head) < header_len:
            raise FormatError(
                f"{path}: byte {len(head)}: truncated header, need {header_len} bytes"
            )
        version, rows, dim = struct.unpack_from("<IQI", head, len(MAGIC))
        if version != BINARY_VERSION:
            raise FormatError(
                f"{path}: byte {len(MAGIC)}: unsupported version {version}, "
                f"expected {BINARY_VERSION}"
            )
        if dim < 1:
            raise FormatError(f"{path}: byte {len(MAGIC) + 12}: dim must be >= 1, got {dim}")
        expected = header_len + rows * dim * 8
        if size != expected:
            raise FormatError(
                f"{path}: byte {min(size, expected)}: payload holds {size - header_len} "
                f"bytes, header promises {rows * dim * 8}"
            )
        if rows == 0:
            raise FormatError(f"{path}: header declares zero rows, nothing to read")
        # Bounded by the file's size; readinto's count catches a file cut since.
        values = np.empty((rows, dim), dtype="<f8")
        got = fh.readinto(values)
    if got != values.nbytes:
        raise FormatError(
            f"{path}: byte {header_len + got}: payload holds {got} bytes, "
            f"header promises {values.nbytes}"
        )
    return values


def read_features(path: str) -> DataBlock:
    """Read a feature matrix, sniffing text versus binary by the magic."""
    with open(path, "rb") as fh:
        head = fh.read(len(MAGIC))
    values = (_read_features_binary if head == MAGIC else _read_features_text)(path)
    try:
        values = _array(values, (None, None), "matrix entries")
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None
    return DataBlock._trusted(values)


# Stands in a document for a matrix that _write_json writes row by row.
_MATRIX = "\x00matrix"


def _write_json(path: str, doc: dict, matrices: list[np.ndarray]) -> None:
    """Write the bytes json.dump(doc, fh, indent=2) and a newline would
    if the i-th _MATRIX mark in doc were matrices[i] as a nested list.

    The indented encoder is pure Python, so it only lays out the small
    skeleton; each matrix row goes through the C encoder and is re-laid
    one number per line, so no string of the whole file is ever built.
    """
    pieces = json.dumps(doc, indent=2).split(json.dumps(_MATRIX))
    with open(path, "w", encoding="ascii") as fh:
        for before, matrix in zip(pieces[:-1], matrices, strict=True):
            fh.write(before)
            line = before[before.rfind("\n") + 1 :]
            _write_matrix(fh, matrix, " " * (len(line) - len(line.lstrip(" "))))
        fh.write(pieces[-1])
        fh.write("\n")


def _write_matrix(fh, matrix: np.ndarray, pad: str) -> None:
    if matrix.shape[0] == 0:
        fh.write("[]")
        return
    row_open = "\n" + pad + "  [\n" + pad + "    "
    between = ",\n" + pad + "    "
    row_close = "\n" + pad + "  ]"
    fh.write("[")
    for i, row in enumerate(matrix):
        if i:
            fh.write(",")
        fh.write(row_open)
        fh.write(json.dumps(row.tolist())[1:-1].replace(", ", between))
        fh.write(row_close)
    fh.write("\n" + pad + "]")


def _block_to_dict(cb: CoresetBlock) -> dict:
    return {
        "rows": cb.block.rows,
        "dim": cb.block.dim,
        "c": cb.c,
        "source_rows": cb.source_rows,
        "values": _MATRIX,
    }


def _json_int(value, what: str) -> int:
    """value itself if it is a JSON integer; floats, strings and booleans
    raise TypeError instead of being coerced."""
    if type(value) is not int:
        raise TypeError(f"{what} must be a JSON integer, got {value!r}")
    return value


def _json_matrix(raw, what: str) -> np.ndarray:
    """raw as a float array if it is a list of lists of JSON numbers;
    strings, booleans and deeper nesting raise TypeError instead of
    being coerced."""
    if type(raw) is not list or not all(type(row) is list for row in raw):
        raise TypeError(f"{what} must be a list of rows")
    if not set(map(type, chain.from_iterable(raw))) <= {int, float}:
        bad = next(x for row in raw for x in row if type(x) not in (int, float))
        raise TypeError(f"{what} entries must be JSON numbers, got {bad!r}")
    return np.array(raw, dtype=float)


def _block_from_dict(raw: dict, where: str) -> CoresetBlock:
    try:
        values = _json_matrix(raw["values"], "values")
        if type(raw["c"]) not in (int, float):
            raise TypeError(f"c must be a JSON number, got {raw['c']!r}")
        block = CoresetBlock(
            block=DataBlock(values),
            c=float(raw["c"]),
            source_rows=_json_int(raw["source_rows"], "source_rows"),
        )
        declared = (
            _json_int(raw.get("rows", block.block.rows), "rows"),
            _json_int(raw.get("dim", block.block.dim), "dim"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{where}: bad summary block: {exc}") from None
    if declared != (block.block.rows, block.block.dim):
        raise FormatError(f"{where}: declared shape disagrees with values")
    return block


def write_coreset(path: str, cb: CoresetBlock) -> None:
    doc = {"format": BLOCK_FORMAT, "version": 1}
    doc.update(_block_to_dict(cb))
    _write_json(path, doc, [cb.block.values])


def _load_json(path):
    """The JSON value in path; a syntax error raises FormatError naming the line."""
    with open(path, "r", encoding="ascii") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: line {exc.lineno}: {exc.msg}") from None


def _read_doc(path: str, fmt: str) -> dict:
    """The JSON object in path, refused unless its format field is fmt."""
    doc = _load_json(path)
    if type(doc) is not dict or doc.get("format") != fmt:
        raise FormatError(f"{path}: not a {fmt} document")
    return doc


def read_coreset(path: str) -> CoresetBlock:
    return _block_from_dict(_read_doc(path, BLOCK_FORMAT), path)


def _node_from_dict(raw: dict, where: str) -> CoresetNode:
    span = raw["span"]
    if type(span) is not list or len(span) != 2:
        raise TypeError(f"span must be a [first, last] pair, got {span!r}")
    return CoresetNode(
        level=_json_int(raw["level"], "level"),
        summary=_block_from_dict(raw, where),
        span=(_json_int(span[0], "span"), _json_int(span[1], "span")),
    )


def write_snapshot(path: str, view: TreeView) -> None:
    doc = {
        "format": SNAPSHOT_FORMAT,
        "version": 1,
        "n": view.n,
        "dim": view.dim,
        "points_seen": view.points_seen,
        "leaves_seen": view.leaves_seen,
        "merge_count": view.merge_count,
        "max_live_nodes": view.max_live_nodes,
        "nodes": [
            {
                "level": node.level,
                "span": [node.span[0], node.span[1]],
                **_block_to_dict(node.summary),
            }
            for node in view.nodes
        ],
        "pending": _MATRIX,
    }
    matrices = [node.summary.block.values for node in view.nodes]
    _write_json(path, doc, matrices + [view.pending])


def read_snapshot(path: str) -> TreeView:
    doc = _read_doc(path, SNAPSHOT_FORMAT)
    try:
        nodes = tuple(_node_from_dict(raw, path) for raw in doc["nodes"])
        pending = _json_matrix(doc["pending"], "pending")
        if pending.shape[0] == 0:
            pending = np.zeros((0, _json_int(doc["dim"], "dim")))
        view = TreeView(
            n=_json_int(doc["n"], "n"),
            dim=_json_int(doc["dim"], "dim"),
            nodes=nodes,
            pending=pending,
            leaves_seen=_json_int(doc["leaves_seen"], "leaves_seen"),
        )
        # The file stores the derived counters too; they must agree.
        stored = {key: _json_int(doc[key], key) for key in _DERIVED_COUNTERS}
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise FormatError(f"{path}: bad snapshot document: {exc}") from None
    for key, value in stored.items():
        if value != getattr(view, key):
            raise FormatError(
                f"{path}: inconsistent snapshot: stored {key} {value} != {getattr(view, key)} "
                f"derived from leaves_seen {view.leaves_seen}"
            )
    return view


def read_stream_config(source: str) -> SyntheticStreamConfig:
    """The stream config in the JSON file source or, if there is no such
    file, the bundled config named source."""
    try:
        raw = _load_json(source)
    except FileNotFoundError:
        bundled = resources.files(__package__).joinpath(f"configs/{source}.json")
        if not bundled.is_file():
            raise FormatError(
                f"no config file {source!r} and no bundled config of that name"
            ) from None
        raw = _load_json(bundled)
    try:
        return config_from_dict(raw)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{source}: {exc}") from None


def write_table(path: str, header, rows, footer: str = "") -> None:
    """CSV of a header row, then rows, then footer as raw text.  Cells are
    written as csv.writer prints them, so callers pass Python scalars."""
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
        fh.write(footer)


def write_telemetry(path: str, records: list[tuple[int, int, int, float]]) -> None:
    """Telemetry CSV, one row per push; records holds one (merges_this_step,
    cumulative_svd_count, live_nodes, push_time) tuple per push, in order."""
    write_table(path, TELEMETRY_COLUMNS, ((step, *rec) for step, rec in enumerate(records)))


def write_sample(path: str, sample: SampleSet, mode: str) -> None:
    """Sample CSV with provenance columns and a row-count footer."""
    limit = 2 * sample.n if mode == "hierarchical" else sample.n
    values = sample.rows.values.tolist()
    rows = ([tag.level, tag.row, *row] for tag, row in zip(sample.tags, values))
    footer = f"# mode={mode} rows={sample.rows.rows} limit={limit}\n"
    write_table(path, ["level", "row"] + [f"f{j}" for j in range(sample.rows.dim)], rows, footer)


def write_track_run(path: str, run) -> None:
    """Track table CSV: one row per frame, no wall-clock anywhere, so
    identical runs produce identical bytes."""
    rows = (
        [r.index, r.chosen, float(r.score), *r.estimate, int(r.correct), r.model_points]
        for r in run.records
    )
    write_table(path, TRACK_COLUMNS, rows)
