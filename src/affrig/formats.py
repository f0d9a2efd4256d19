"""JSON document formats for structures, frameworks, scan sets, and reports.

All documents are versioned JSON objects with a ``type`` tag. Floating-point
values round-trip exactly: serialization uses Python's shortest-repr float
formatting, which preserves every bit of an IEEE double. Schemas are closed —
unknown fields are rejected, with the offending JSON path in the error.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from bisect import bisect_right
from itertools import accumulate, chain

import numpy as np

from .errors import AffrigError
from .hypergraph import Graph, Hypergraph
from .registration import ScanSet, SizeClass

FORMAT_VERSION = 1

STRUCTURE_TYPES = ("graph", "hypergraph")

_SCHEMAS = {
    "graph": {"version", "type", "vertex_count", "edges"},
    "hypergraph": {"version", "type", "vertex_count", "hyperedges"},
    "framework": {"version", "type", "dim", "coordinates"},
    "scanset": {"version", "type", "dim", "trust", "scans"},
    "report": {
        "version",
        "type",
        "command",
        "parameters",
        "verdict",
        "corank",
        "one_sided",
        "certificate",
        "residuals",
        "error",
        "gauge",
        "counts",
        "timings",
        "timestamp",
    },
}
_SCAN_KEYS = {"hyperedge", "coordinates"}


class FormatError(AffrigError):
    """A document failed to parse or validate."""

    def __init__(self, message, path=None, line=None, column=None):
        self.path = path
        self.line = line
        self.column = column
        where = ""
        if path is not None:
            where = f" at {path}"
        elif line is not None:
            where = f" at line {line} column {column}"
        super().__init__(f"bad document{where}: {message}")


def parse_document(text: str) -> dict:
    """Parse JSON text into a validated document object."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as error:
        raise FormatError(error.msg, line=error.lineno, column=error.colno) from None
    if not isinstance(doc, dict):
        raise FormatError("expected a JSON object", path="$")
    kind = doc.get("type")
    if kind not in _SCHEMAS:
        raise FormatError(f"unknown document type {kind!r}", path="$.type")
    unknown = sorted(set(doc) - _SCHEMAS[kind])
    if unknown:
        raise FormatError(f"unexpected field {unknown[0]!r}", path=f"$.{unknown[0]}")
    version = doc.get("version")
    if version != FORMAT_VERSION:
        raise FormatError(
            f"unsupported version {version!r} (expected {FORMAT_VERSION})",
            path="$.version",
        )
    if kind == "scanset":
        scans = doc.get("scans")
        if not isinstance(scans, list):
            raise FormatError("scans must be a list", path="$.scans")
        for index, scan in enumerate(scans):
            if not isinstance(scan, dict):
                raise FormatError("scan must be an object", path=f"$.scans[{index}]")
            extra = sorted(set(scan) - _SCAN_KEYS)
            if extra:
                raise FormatError(
                    f"unexpected field {extra[0]!r}",
                    path=f"$.scans[{index}].{extra[0]}",
                )
            missing = sorted(_SCAN_KEYS - set(scan))
            if missing:
                raise FormatError(
                    f"missing field {missing[0]!r}", path=f"$.scans[{index}]"
                )
    return doc


def serialize(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def load_document(path: str) -> dict:
    return parse_document(read_text(path))


def write_document(doc: dict, path: str) -> None:
    """Serialize to ``path`` ("-" for stdout) via write-to-temp and rename."""
    text = serialize(doc)
    if path == "-":
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    descriptor, temp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(temp_path, path)
    except BaseException:
        os.unlink(temp_path)
        raise


def _int_field(doc: dict, field: str):
    value = doc.get(field)
    if not isinstance(value, int) or isinstance(value, bool):
        raise FormatError(f"{field} must be an integer", path=f"$.{field}")
    return value


_NUMBER_TYPES = {int, float, bool}
_LIST = {list}
_INT = {int}
_DOUBLE_MAX = sys.float_info.max
_LABEL_MAX = int(np.iinfo(np.int64).max)


def _first_not_in(items: list, allowed: set, key=type) -> int:
    """The index of the first item whose key is not in ``allowed``, or len(items)."""
    if set(map(key, items)) <= allowed:
        return len(items)
    return next(i for i, item in enumerate(items) if key(item) not in allowed)


def _is_label(u) -> bool:
    return type(u) is int and 0 <= u <= _LABEL_MAX


def _first_label_fault(labels: list) -> int:
    """The index of the first item that is not a vertex label, or len(labels)."""
    ints = labels[: _first_not_in(labels, _INT)]
    if ints and 0 <= min(ints) and max(ints) <= _LABEL_MAX:  # a shortcut
        return len(ints)
    return _first_not_in(labels, {True}, _is_label)


def _doubles(values: list) -> tuple[np.ndarray | None, int]:
    """JSON numbers as doubles (None if an integer overflows them), and the
    index of the first that is not a finite double, or len(values)."""
    try:
        array = np.array(values, dtype=float)
        # Rounding is monotone: a magnitude below the largest double after
        # conversion is below it before. Only the rest needs the exact walk.
        if (np.abs(array) < _DOUBLE_MAX).all():
            return array, len(values)
    except OverflowError:
        array = None
    return array, next(
        (i for i, x in enumerate(values) if not abs(x) <= _DOUBLE_MAX), len(values)
    )


def _point_rows(points: list, dim: int) -> tuple[np.ndarray | None, tuple | None]:
    """The points as an (n, dim) array of doubles, and their first fault:
    (the point's index, the path below the point, the message), or None.

    Each check looks at the points, or their numbers, that passed the checks
    before it, so it finds the fault that a point-by-point walk finds first:
    a point's shape and number types come before its values.
    """
    count = _first_not_in(points, _LIST)
    count = _first_not_in(points[:count], {dim}, len)
    values = list(chain.from_iterable(points[:count]))
    count = _first_not_in(values, _NUMBER_TYPES) // dim
    array, finite = _doubles(values[: count * dim])
    if finite < count * dim:
        fault = finite // dim, f"[{finite % dim}]", "coordinate is not a finite double"
    elif count < len(points):
        fault = count, "", f"expected a point with {dim} coordinates"
    else:
        return array.reshape(count, dim), None
    return None, fault


def _point_list(rows, path: str, dim: int) -> np.ndarray:
    """Rows of ``dim`` JSON numbers as a (len(rows), dim) array of finite floats."""
    array, fault = _point_rows(rows, dim)
    if fault is not None:
        index, below, message = fault
        raise FormatError(message, path=f"{path}[{index}]{below}")
    return array


def structure_from_document(doc: dict) -> Graph | Hypergraph:
    kind = doc["type"]
    if kind == "graph":
        edges = doc.get("edges")
        if not isinstance(edges, list):
            raise FormatError("edges must be a list", path="$.edges")
        for index, edge in enumerate(edges):
            if not isinstance(edge, list) or len(edge) != 2:
                raise FormatError(
                    "edge must be a pair of vertices", path=f"$.edges[{index}]"
                )
        return Graph.from_edges(_int_field(doc, "vertex_count"), map(tuple, edges))
    if kind == "hypergraph":
        hyperedges = doc.get("hyperedges")
        if not isinstance(hyperedges, list):
            raise FormatError("hyperedges must be a list", path="$.hyperedges")
        for index, h in enumerate(hyperedges):
            if not isinstance(h, list):
                raise FormatError(
                    "hyperedge must be a vertex list", path=f"$.hyperedges[{index}]"
                )
        return Hypergraph.from_hyperedges(_int_field(doc, "vertex_count"), hyperedges)
    raise FormatError(f"expected a structure document, got {kind!r}", path="$.type")


def coordinates_from_document(doc: dict) -> np.ndarray:
    if doc["type"] != "framework":
        raise FormatError(
            f"expected a framework document, got {doc['type']!r}", path="$.type"
        )
    dim = _int_field(doc, "dim")
    if dim < 1:
        raise FormatError("dim must be positive", path="$.dim")
    rows = doc.get("coordinates")
    if not isinstance(rows, list):
        raise FormatError("coordinates must be a list", path="$.coordinates")
    return _point_list(rows, "$.coordinates", dim)


def _size_classes(entries: list, dim: int) -> list[SizeClass]:
    """The scans as one ``SizeClass`` per size k.

    Raises a FormatError at the first fault of the first faulty scan. Each
    check looks only at the scans before the first fault found so far, and
    the checks run in the order a scan-by-scan walk makes them: labels,
    chart, points, point count, then distinct members.
    """
    hyperedges = [entry["hyperedge"] for entry in entries]
    charts = [entry["coordinates"] for entry in entries]
    limit, fault = len(entries), None

    count = _first_not_in(hyperedges, _LIST)
    ends = list(accumulate(map(len, hyperedges[:count])))
    labels = list(chain.from_iterable(hyperedges[:count]))
    label = _first_label_fault(labels)
    if label < len(labels):
        count = bisect_right(ends, label)
    if count < limit:
        limit = count
        fault = (".hyperedge", "hyperedge must be a list of vertex labels")

    count = _first_not_in(charts[:limit], _LIST)
    if count < limit:
        limit = count
        fault = (".coordinates", "coordinates must be a list")

    coordinates, bad = _point_rows(list(chain.from_iterable(charts[:limit])), dim)
    if bad is not None:
        point, below, message = bad
        point_ends = list(accumulate(map(len, charts[:limit])))
        limit = bisect_right(point_ends, point)
        point -= point_ends[limit - 1] if limit else 0
        fault = (f".coordinates[{point}]{below}", message)

    sizes = np.array(list(map(len, hyperedges[:limit])), dtype=int)
    counts = np.array(list(map(len, charts[:limit])), dtype=int)
    unequal = np.flatnonzero(sizes != counts)
    if unequal.size:
        limit = int(unequal[0])
        fault = ("", f"{sizes[limit]} members but {counts[limit]} points")

    sizes = sizes[:limit]
    starts = np.cumsum(sizes) - sizes
    members = np.array(labels[: sizes.sum()], dtype=np.int64)
    groups = []
    for k in dict.fromkeys(sizes.tolist()):  # in order of first appearance
        positions = np.flatnonzero(sizes == k)
        rows = starts[positions][:, None] + np.arange(k)
        ordered = np.sort(members[rows], axis=1)
        repeats = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
        repeated = positions[repeats | (k == 0)]
        if repeated.size and repeated[0] < limit:
            limit = int(repeated[0])
            fault = (".hyperedge", "hyperedge must list at least one vertex, each once")
        groups.append((positions, rows))
    if fault is not None:
        below, message = fault
        raise FormatError(message, path=f"$.scans[{limit}]{below}")
    return [
        SizeClass(positions, members[rows], coordinates[rows])
        for positions, rows in groups
    ]


def scan_set_from_document(doc: dict) -> ScanSet:
    """Build a scan set; vertex_count is inferred from the largest label.

    The scans are checked and stored one size class at a time.
    """
    if doc["type"] != "scanset":
        raise FormatError(
            f"expected a scanset document, got {doc['type']!r}", path="$.type"
        )
    dim = _int_field(doc, "dim")
    if dim < 1:
        raise FormatError("dim must be positive", path="$.dim")
    trust = doc.get("trust")
    if trust not in ("affine", "euclidean"):
        raise FormatError(f"unknown trust class {trust!r}", path="$.trust")
    classes = _size_classes(doc["scans"], dim)
    top = max((int(members.max()) for _, members, _ in classes), default=-1)
    return ScanSet.from_classes(top + 1, classes, trust)


def document_from_structure(structure: Graph | Hypergraph) -> dict:
    if isinstance(structure, Graph):
        return {
            "version": FORMAT_VERSION,
            "type": "graph",
            "vertex_count": structure.vertex_count,
            "edges": [list(edge) for edge in structure.sorted_edges()],
        }
    return {
        "version": FORMAT_VERSION,
        "type": "hypergraph",
        "vertex_count": structure.vertex_count,
        "hyperedges": [list(h) for h in structure.sorted_hyperedges()],
    }


def document_from_coordinates(coordinates: np.ndarray) -> dict:
    coordinates = np.asarray(coordinates, dtype=float)
    return {
        "version": FORMAT_VERSION,
        "type": "framework",
        "dim": int(coordinates.shape[1]),
        "coordinates": [[float(x) for x in row] for row in coordinates],
    }


def document_from_scan_set(scan_set: ScanSet) -> dict:
    scans = [None] * len(scan_set)
    for positions, members, charts in scan_set.classes:
        for position, hyperedge, coordinates in zip(
            positions.tolist(), members.tolist(), charts.tolist()
        ):
            scans[position] = {"hyperedge": hyperedge, "coordinates": coordinates}
    return {
        "version": FORMAT_VERSION,
        "type": "scanset",
        "dim": scan_set.dim,
        "trust": scan_set.trust,
        "scans": scans,
    }


def report_document(command: str, **fields) -> dict:
    doc = {"version": FORMAT_VERSION, "type": "report", "command": command}
    doc.update(fields)
    unknown = sorted(set(doc) - _SCHEMAS["report"])
    if unknown:
        raise FormatError(f"unexpected field {unknown[0]!r}", path=f"$.{unknown[0]}")
    return doc
