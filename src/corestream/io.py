"""File formats: feature matrices, summary blocks, tree snapshots,
samples, telemetry and track tables.

Feature matrices travel either as text (a ``dim=<d> rows=<r>`` header
line, then one space-separated row per line) or as a little-endian
binary stream (magic ``CSTK``, u32 version, u64 rows, u32 dim, then
row-major float64).  Readers sniff the magic, so callers never state
the encoding.  Structured state (summary blocks, tree snapshots) is
JSON with floats written in shortest round-trip form, which keeps the
files human-diffable and the round trip exact.
"""

from __future__ import annotations

import csv
import json
import struct

import numpy as np

from .blocks import CoresetBlock, DataBlock
from .sampling import SampleSet
from .tree import CoresetNode, TreeView, validate_view

MAGIC = b"CSTK"
BINARY_VERSION = 1
SNAPSHOT_FORMAT = "coreset-tree-snapshot"
BLOCK_FORMAT = "coreset-block"

TELEMETRY_COLUMNS = (
    "step",
    "merges_this_step",
    "cumulative_svd_count",
    "live_nodes",
    "push_time",
)

TRACK_COLUMNS = (
    "frame",
    "chosen",
    "score",
    "estimate_x",
    "estimate_y",
    "correct",
    "model_points",
)


class FormatError(ValueError):
    """A file failed to parse; the message pinpoints where."""


def write_features_text(path: str, block: DataBlock) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"dim={block.dim} rows={block.rows}\n")
        for row in block.values:
            fh.write(" ".join(repr(float(x)) for x in row))
            fh.write("\n")


def write_features_binary(path: str, block: DataBlock) -> None:
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<IQI", BINARY_VERSION, block.rows, block.dim))
        fh.write(np.ascontiguousarray(block.values, dtype="<f8").tobytes())


def write_features(path: str, block: DataBlock, binary: bool = False) -> None:
    if binary:
        write_features_binary(path, block)
    else:
        write_features_text(path, block)


def _read_features_text(path: str) -> DataBlock:
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
        data = np.zeros((rows, dim))
        for i in range(rows):
            line = fh.readline()
            if not line:
                raise FormatError(
                    f"{path}: line {i + 2}: file ends after {i} of {rows} rows"
                )
            fields = line.split()
            if len(fields) != dim:
                raise FormatError(
                    f"{path}: line {i + 2}: expected {dim} values, got {len(fields)}"
                )
            try:
                data[i] = [float(x) for x in fields]
            except ValueError:
                raise FormatError(f"{path}: line {i + 2}: non-numeric value") from None
        if rows == 0:
            raise FormatError(f"{path}: header declares zero rows, nothing to read")
        return DataBlock(data)


def _read_features_binary(path: str) -> DataBlock:
    with open(path, "rb") as fh:
        raw = fh.read()
    header_len = len(MAGIC) + struct.calcsize("<IQI")
    if len(raw) < header_len:
        raise FormatError(
            f"{path}: byte {len(raw)}: truncated header, need {header_len} bytes"
        )
    version, rows, dim = struct.unpack_from("<IQI", raw, len(MAGIC))
    if version != BINARY_VERSION:
        raise FormatError(
            f"{path}: byte {len(MAGIC)}: unsupported version {version}, "
            f"expected {BINARY_VERSION}"
        )
    if dim < 1:
        raise FormatError(f"{path}: byte {len(MAGIC) + 12}: dim must be >= 1, got {dim}")
    expected = header_len + rows * dim * 8
    if len(raw) != expected:
        raise FormatError(
            f"{path}: byte {min(len(raw), expected)}: payload holds {len(raw) - header_len} "
            f"bytes, header promises {rows * dim * 8}"
        )
    if rows == 0:
        raise FormatError(f"{path}: header declares zero rows, nothing to read")
    data = np.frombuffer(raw, dtype="<f8", offset=header_len).reshape(rows, dim)
    return DataBlock(data)


def read_features(path: str) -> DataBlock:
    """Read a feature matrix, sniffing text versus binary by the magic."""
    with open(path, "rb") as fh:
        head = fh.read(len(MAGIC))
    if head == MAGIC:
        return _read_features_binary(path)
    return _read_features_text(path)


def _block_to_dict(cb: CoresetBlock) -> dict:
    return {
        "rows": cb.block.rows,
        "dim": cb.block.dim,
        "c": cb.c,
        "source_rows": cb.source_rows,
        "values": cb.block.values.tolist(),
    }


def _block_from_dict(raw: dict, where: str) -> CoresetBlock:
    try:
        values = np.array(raw["values"], dtype=float)
        block = CoresetBlock(
            block=DataBlock(values), c=float(raw["c"]), source_rows=int(raw["source_rows"])
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{where}: bad summary block: {exc}") from None
    if block.block.rows != int(raw.get("rows", block.block.rows)) or block.block.dim != int(
        raw.get("dim", block.block.dim)
    ):
        raise FormatError(f"{where}: declared shape disagrees with values")
    return block


def write_coreset(path: str, cb: CoresetBlock) -> None:
    doc = {"format": BLOCK_FORMAT, "version": 1}
    doc.update(_block_to_dict(cb))
    with open(path, "w", encoding="ascii") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def read_coreset(path: str) -> CoresetBlock:
    with open(path, "r", encoding="ascii") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: line {exc.lineno}: {exc.msg}") from None
    if doc.get("format") != BLOCK_FORMAT:
        raise FormatError(f"{path}: not a {BLOCK_FORMAT} document")
    return _block_from_dict(doc, path)


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
        "pending": np.asarray(view.pending, dtype=float).tolist(),
    }
    with open(path, "w", encoding="ascii") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def read_snapshot(path: str) -> TreeView:
    with open(path, "r", encoding="ascii") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: line {exc.lineno}: {exc.msg}") from None
    if doc.get("format") != SNAPSHOT_FORMAT:
        raise FormatError(f"{path}: not a {SNAPSHOT_FORMAT} document")
    try:
        nodes = tuple(
            CoresetNode(
                level=int(raw["level"]),
                summary=_block_from_dict(raw, path),
                span=(int(raw["span"][0]), int(raw["span"][1])),
            )
            for raw in doc["nodes"]
        )
        pending = np.array(doc["pending"], dtype=float)
        if pending.size == 0:
            pending = np.zeros((0, int(doc["dim"])))
        pending.setflags(write=False)
        view = TreeView(
            n=int(doc["n"]),
            dim=int(doc["dim"]),
            nodes=nodes,
            pending=pending,
            points_seen=int(doc["points_seen"]),
            leaves_seen=int(doc["leaves_seen"]),
            merge_count=int(doc["merge_count"]),
            max_live_nodes=int(doc["max_live_nodes"]),
        )
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise FormatError(f"{path}: bad snapshot document: {exc}") from None
    try:
        validate_view(view)
    except ValueError as exc:
        raise FormatError(f"{path}: inconsistent snapshot: {exc}") from None
    return view


def write_telemetry(path: str, records: list[tuple[int, int, int, float]]) -> None:
    """Telemetry CSV, one row per push; records holds one (merges_this_step,
    cumulative_svd_count, live_nodes, push_time) tuple per push, in order."""
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TELEMETRY_COLUMNS)
        for step, (merges, cumulative, live, seconds) in enumerate(records):
            writer.writerow([step, merges, cumulative, live, repr(float(seconds))])


def write_sample(path: str, sample: SampleSet, mode: str) -> None:
    """Sample CSV with provenance columns and a row-count footer."""
    limit = 2 * sample.n if mode == "hierarchical" else sample.n
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["level", "row"] + [f"f{j}" for j in range(sample.rows.dim)])
        for tag, row in zip(sample.tags, sample.rows.values):
            writer.writerow([tag.level, tag.row] + [repr(float(x)) for x in row])
        fh.write(f"# mode={mode} rows={sample.rows.rows} limit={limit}\n")


def write_track_run(path: str, run) -> None:
    """Track table CSV: one row per frame, no wall-clock anywhere, so
    identical runs produce identical bytes."""
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACK_COLUMNS)
        for r in run.records:
            writer.writerow(
                [
                    r.index,
                    r.chosen,
                    repr(float(r.score)),
                    repr(float(r.estimate[0])),
                    repr(float(r.estimate[1])),
                    int(r.correct),
                    r.model_points,
                ]
            )
