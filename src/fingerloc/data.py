"""RSSI fingerprint dataset handling.

Loads labelled/unlabelled beacon CSVs, decodes grid-cell location labels,
splits, histograms, and generates synthetic corpora from a log-distance
path-loss model for tests and offline runs.
"""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import LayoutError, MalformedLabelError, RowError, SchemaError

GRID_SIZE = 25
NO_SIGNAL = -200.0
DEFAULT_CELL_FEET = 10.0

_DEFAULT_LAYOUT_PATH = Path(__file__).parent / "layouts" / "default_layout.json"


@dataclass(frozen=True)
class BeaconLayout:
    """Ordered beacon identifiers with their grid positions.

    ``ids[i]`` transmits from ``(xs[i], ys[i])`` in grid units; one grid
    cell is ``cell_feet`` feet on a side.
    """

    ids: tuple[str, ...]
    xs: tuple[float, ...]
    ys: tuple[float, ...]
    cell_feet: float = DEFAULT_CELL_FEET

    def __post_init__(self):
        if len(self.ids) != len(self.xs) or len(self.ids) != len(self.ys):
            raise LayoutError("beacon id and coordinate counts differ")
        if len(set(self.ids)) != len(self.ids):
            raise LayoutError("duplicate beacon identifiers")
        for bid, x, y in zip(self.ids, self.xs, self.ys):
            if not (0 <= x < GRID_SIZE and 0 <= y < GRID_SIZE):
                raise LayoutError(f"beacon {bid} at ({x}, {y}) outside the {GRID_SIZE}x{GRID_SIZE} grid")

    @property
    def n_beacons(self) -> int:
        return len(self.ids)

    def index_of(self, beacon_id: str) -> int:
        try:
            return self.ids.index(beacon_id)
        except ValueError:
            raise LayoutError(f"unknown beacon id {beacon_id!r}") from None


@dataclass(frozen=True)
class GridPoint:
    x: float
    y: float


@dataclass(frozen=True, eq=False)
class Fingerprints:
    """A read-only table of fingerprint rows, one array per column.

    ``rssi`` is (N, n_beacons) float64 dBm and ``timestamps`` (N,) text.
    Labelled rows also carry ``cells``, the (N, 2) integer grid cell
    ``[x, y]``, and ``labels``, the location label text as read; both are
    None for unlabelled rows. Tables compare equal when every column is
    exactly equal.
    """

    rssi: np.ndarray
    timestamps: np.ndarray
    cells: np.ndarray | None
    labels: np.ndarray | None

    def __post_init__(self):
        columns = {"rssi": np.asarray(self.rssi, dtype=np.float64),
                   "timestamps": np.asarray(self.timestamps, dtype=str)}
        if self.cells is not None:
            columns["cells"] = np.asarray(self.cells, dtype=np.int64).reshape(-1, 2)
            columns["labels"] = np.asarray(self.labels, dtype=str)
        if columns["rssi"].ndim != 2 or any(len(c) != len(columns["rssi"]) for c in columns.values()):
            raise ValueError("fingerprint columns must be row-aligned and rssi 2-D")
        for name, column in columns.items():
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return len(self.rssi)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Fingerprints):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))

    def take(self, index) -> "Fingerprints":
        """The rows at ``index`` (integer indices or a boolean mask), in that order."""
        return Fingerprints(self.rssi[index], self.timestamps[index],
                            None if self.cells is None else self.cells[index],
                            None if self.labels is None else self.labels[index])


@dataclass(frozen=True)
class Dataset:
    labelled: Fingerprints
    unlabelled: Fingerprints
    layout: BeaconLayout


@dataclass(frozen=True)
class PathLossModel:
    """Log-distance propagation model for synthetic RSSI generation."""

    reference_power: float = -45.0  # dBm at d0
    exponent: float = 2.2
    reference_distance: float = 1.0  # grid units
    noise_std: float = 2.0  # dB
    detection_floor: float = -95.0  # dBm; weaker readings become no-signal

    def __post_init__(self):
        if self.exponent <= 0:
            raise ValueError("path-loss exponent must be positive")
        if self.detection_floor < NO_SIGNAL:
            raise ValueError("detection floor below the no-signal value")


def encode_location_label(point: GridPoint) -> str:
    """Inverse of :func:`decode_location_label`; integer cells only."""
    col = int(point.x)
    row = int(point.y)
    if not (0 <= col < GRID_SIZE and 0 <= row < GRID_SIZE):
        raise MalformedLabelError(f"cell ({col}, {row}) outside grid")
    return f"{chr(ord('A') + col)}{row:02d}"


def decode_location_label(label: str) -> GridPoint:
    """Decode a ``<letter><digits>`` grid label to a GridPoint.

    The letter A..Y selects the column (A -> 0) and the digits select the
    row (must be < 25).
    """
    if len(label) < 2:
        raise MalformedLabelError(f"label {label!r} too short")
    letter, digits = label[0], label[1:]
    col = ord(letter.upper()) - ord("A")
    if not (0 <= col < GRID_SIZE):
        raise MalformedLabelError(f"label {label!r}: letter must be A..Y")
    if not digits.isdigit():
        raise MalformedLabelError(f"label {label!r}: row part is not numeric")
    row = int(digits)
    if row >= GRID_SIZE:
        raise MalformedLabelError(f"label {label!r}: row {row} >= {GRID_SIZE}")
    return GridPoint(float(col), float(row))


def load_layout(path: str | Path) -> BeaconLayout:
    """Read a layout JSON file: grid size, cell feet, beacon positions."""
    with open(path) as f:
        doc = json.load(f)
    grid = doc.get("grid", [GRID_SIZE, GRID_SIZE])
    if list(grid) != [GRID_SIZE, GRID_SIZE]:
        raise LayoutError(f"unsupported grid {grid}, expected [{GRID_SIZE}, {GRID_SIZE}]")
    beacons = doc["beacons"]
    return BeaconLayout(
        ids=tuple(b["id"] for b in beacons),
        xs=tuple(float(b["x"]) for b in beacons),
        ys=tuple(float(b["y"]) for b in beacons),
        cell_feet=float(doc.get("cell_feet", DEFAULT_CELL_FEET)),
    )


def save_layout(layout: BeaconLayout, path: str | Path) -> None:
    doc = {
        "grid": [GRID_SIZE, GRID_SIZE],
        "cell_feet": layout.cell_feet,
        "beacons": [
            {"id": bid, "x": x, "y": y}
            for bid, x, y in zip(layout.ids, layout.xs, layout.ys)
        ],
    }
    with open(path, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


def default_layout() -> BeaconLayout:
    return load_layout(_DEFAULT_LAYOUT_PATH)


def _parse_rssi_row(fields: Sequence[str], line: int) -> list[float]:
    values = []
    for raw in fields:
        try:
            v = float(raw)
        except ValueError:
            raise RowError(line, f"non-numeric RSSI value {raw!r}") from None
        if not (NO_SIGNAL <= v <= 0.0):
            raise RowError(line, f"RSSI {v} outside [{NO_SIGNAL}, 0]")
        values.append(v)
    return values


def _rssi_matrix(rows: list, layout: BeaconLayout) -> np.ndarray:
    return np.array(rows, dtype=np.float64).reshape(len(rows), layout.n_beacons)


def _csv_rows(stream: io.TextIOBase | str, layout: BeaconLayout, lead: tuple[str, ...], what: str):
    """Check the ``<lead...>,<beacons...>`` header, then yield
    (line number, stripped lead fields, RSSI fields) for each non-empty row."""
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError(f"empty {what} CSV") from None
    expected = len(lead) + layout.n_beacons
    if len(header) != expected or [h.strip().lower() for h in header[:len(lead)]] != list(lead):
        raise SchemaError(
            f"{what} header must be {','.join(lead)},<{layout.n_beacons} beacon columns>; got {len(header)} columns"
        )
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != expected:
            raise RowError(lineno, f"expected {expected} columns, got {len(row)}")
        yield lineno, [f.strip() for f in row[:len(lead)]], row[len(lead):]


def parse_labelled_csv(stream: io.TextIOBase | str, layout: BeaconLayout) -> Fingerprints:
    """Parse a ``location,date,<beacons...>`` CSV into a labelled table."""
    labels, timestamps, cells, rssi = [], [], [], []
    for lineno, (label, timestamp), values in _csv_rows(stream, layout, ("location", "date"), "labelled"):
        point = decode_location_label(label)
        labels.append(label)
        timestamps.append(timestamp)
        cells.append((int(point.x), int(point.y)))
        rssi.append(_parse_rssi_row(values, lineno))
    return Fingerprints(_rssi_matrix(rssi, layout), timestamps, cells, labels)


def parse_unlabelled_csv(stream: io.TextIOBase | str, layout: BeaconLayout) -> Fingerprints:
    """Parse a ``date,<beacons...>`` CSV into an unlabelled table."""
    timestamps, rssi = [], []
    for lineno, (timestamp,), values in _csv_rows(stream, layout, ("date",), "unlabelled"):
        timestamps.append(timestamp)
        rssi.append(_parse_rssi_row(values, lineno))
    return Fingerprints(_rssi_matrix(rssi, layout), timestamps, None, None)


def load_dataset(labelled_path: str | Path, unlabelled_path: str | Path | None, layout: BeaconLayout) -> Dataset:
    with open(labelled_path, newline="") as f:
        labelled = parse_labelled_csv(f, layout)
    unlabelled = Fingerprints(_rssi_matrix([], layout), [], None, None)
    if unlabelled_path is not None:
        with open(unlabelled_path, newline="") as f:
            unlabelled = parse_unlabelled_csv(f, layout)
    return Dataset(labelled=labelled, unlabelled=unlabelled, layout=layout)


def write_labelled_csv(table: Fingerprints, layout: BeaconLayout, path: str | Path,
                       sources: Sequence[str] | None = None) -> None:
    """Write labelled rows; with ``sources`` an extra provenance column is added."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        header = ["location", "date", *layout.ids]
        if sources is not None:
            header.append("source")
        writer.writerow(header)
        # .tolist() gives Python floats, whose repr is the plain number
        rows = zip(table.labels.tolist(), table.timestamps.tolist(), table.rssi.tolist())
        for i, (label, timestamp, rssi) in enumerate(rows):
            row = [label, timestamp, *(_fmt(v) for v in rssi)]
            if sources is not None:
                row.append(sources[i])
            writer.writerow(row)


def write_unlabelled_csv(table: Fingerprints, layout: BeaconLayout, path: str | Path) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["date", *layout.ids])
        for timestamp, rssi in zip(table.timestamps.tolist(), table.rssi.tolist()):
            writer.writerow([timestamp, *(_fmt(v) for v in rssi)])


def _fmt(v: float) -> str:
    return repr(v) if v != int(v) else str(int(v))


def split(table: Fingerprints, ratio: float, seed: int) -> tuple[Fingerprints, Fingerprints]:
    """Seeded shuffle then prefix/suffix cut; train size = floor(ratio * N)."""
    if not (0.0 <= ratio <= 1.0):
        raise ValueError(f"split ratio {ratio} outside [0, 1]")
    rng = np.random.Generator(np.random.PCG64(seed))
    order = rng.permutation(len(table))
    n_train = int(math.floor(ratio * len(table)))
    return table.take(order[:n_train]), table.take(order[n_train:])


def sample_histogram(table: Fingerprints) -> np.ndarray:
    """Count rows per grid cell; shape (25, 25) indexed [x, y]."""
    grid = np.zeros((GRID_SIZE, GRID_SIZE), dtype=np.int64)
    np.add.at(grid, (table.cells[:, 0], table.cells[:, 1]), 1)
    return grid


def find_underrepresented(table: Fingerprints, threshold: int) -> list[tuple[tuple[int, int], np.ndarray]]:
    """Cells holding at least one but fewer than ``threshold`` rows.

    Returned as (cell, row indices) in order of the cell's first appearance;
    each cell's row indices are in table order.
    """
    if threshold < 1:
        raise ValueError("threshold must be >= 1")
    cells, first, group, counts = np.unique(table.cells, axis=0, return_index=True,
                                            return_inverse=True, return_counts=True)
    rows = np.split(np.argsort(group.ravel(), kind="stable"), np.cumsum(counts)[:-1])
    return [((int(cells[g, 0]), int(cells[g, 1])), rows[g])
            for g in np.argsort(first) if counts[g] < threshold]


def synth_rssi(layout: BeaconLayout, model: PathLossModel, x: float, y: float,
               rng: np.random.Generator) -> tuple[float, ...]:
    """One RSSI vector at grid position (x, y) under the path-loss model."""
    values = []
    for bx, by in zip(layout.xs, layout.ys):
        dist = max(math.hypot(bx - x, by - y), model.reference_distance)
        rssi = model.reference_power - 10.0 * model.exponent * math.log10(dist / model.reference_distance)
        if model.noise_std > 0:
            rssi += rng.normal(0.0, model.noise_std)
        if rssi < model.detection_floor:
            rssi = NO_SIGNAL
        values.append(min(max(rssi, NO_SIGNAL), 0.0))
    return tuple(values)


def synth_generate(layout: BeaconLayout, model: PathLossModel, n_locations: int,
                   samples_per_location: int, seed: int, n_unlabelled: int = 0) -> Dataset:
    """Deterministic synthetic corpus: labelled samples at integer grid cells
    plus optional unlabelled samples at random continuous positions."""
    if n_locations < 1 or samples_per_location < 1:
        raise ValueError("counts must be >= 1")
    if n_locations > GRID_SIZE * GRID_SIZE:
        raise ValueError(f"at most {GRID_SIZE * GRID_SIZE} distinct grid locations")
    rng = np.random.Generator(np.random.PCG64(seed))
    flat = rng.choice(GRID_SIZE * GRID_SIZE, size=n_locations, replace=False)
    cells = np.repeat(np.stack([flat // GRID_SIZE, flat % GRID_SIZE], axis=1), samples_per_location, axis=0)
    labels = [encode_location_label(GridPoint(float(cx), float(cy))) for cx, cy in cells.tolist()]
    timestamps = [f"synth-{k}-{j}" for k in range(n_locations) for j in range(samples_per_location)]
    rssi = [synth_rssi(layout, model, float(cx), float(cy), rng) for cx, cy in cells.tolist()]
    labelled = Fingerprints(_rssi_matrix(rssi, layout), timestamps, cells, labels)
    unlabelled_rssi = []
    for _ in range(n_unlabelled):
        x = rng.uniform(0.0, GRID_SIZE)
        y = rng.uniform(0.0, GRID_SIZE)
        unlabelled_rssi.append(synth_rssi(layout, model, x, y, rng))
    unlabelled = Fingerprints(_rssi_matrix(unlabelled_rssi, layout),
                              [f"synth-u-{k}" for k in range(n_unlabelled)], None, None)
    return Dataset(labelled=labelled, unlabelled=unlabelled, layout=layout)
