"""RSSI fingerprint dataset handling.

Loads labelled/unlabelled beacon CSVs, decodes grid-cell location labels,
splits, groups under-represented cells, and generates synthetic corpora
from a log-distance path-loss model for tests and offline runs.
"""
from __future__ import annotations

import csv
import io
import json
import math
import sys
from array import array
from dataclasses import dataclass, fields
from itertools import repeat
from pathlib import Path
from typing import Iterable, Sequence, get_args

import numpy as np

from .errors import FingerlocError, LayoutError, MalformedLabelError, NumericalError, RowError, SchemaError

GRID_SIZE = 25
NO_SIGNAL = -200.0
DEFAULT_CELL_FEET = 10.0
_SYNTH_BLOCK_ROWS = 256  # rows whose distances, or whose readings as text, are Python objects at one time

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
        if not self.ids:
            raise LayoutError("no beacons")
        if len(self.ids) != len(self.xs) or len(self.ids) != len(self.ys):
            raise LayoutError("beacon id and coordinate counts differ")
        for bid in self.ids:  # a CSV reader strips each header field before matching it to an id
            if not isinstance(bid, str) or bid != bid.strip():
                raise LayoutError(f"beacon id {bid!r} is not a string free of surrounding spaces")
        if len(set(self.ids)) != len(self.ids):
            raise LayoutError("duplicate beacon identifiers")
        for bid, x, y in zip(self.ids, self.xs, self.ys):
            if not (0 <= x < GRID_SIZE and 0 <= y < GRID_SIZE):
                raise LayoutError(f"beacon {bid} at ({x}, {y}) outside the {GRID_SIZE}x{GRID_SIZE} grid")
        if not 0.0 < self.cell_feet < math.inf:
            raise LayoutError(f"cell_feet must be finite and positive, got {self.cell_feet}")

    @property
    def n_beacons(self) -> int:
        return len(self.ids)

    def index_of(self, beacon_id: str) -> int:
        try:
            return self.ids.index(beacon_id)
        except ValueError:
            raise LayoutError(f"unknown beacon id {beacon_id!r}") from None


@dataclass(frozen=True, eq=False)
class Fingerprints:
    """A read-only table of fingerprint rows, one array per column.

    ``rssi`` is (N, n_beacons) float64 dBm and ``timestamps`` (N,) text, a ``StringDType`` array: each
    string takes its own length, and a trailing NUL is kept.
    Labelled rows also carry ``cells``, the (N, 2) integer grid cell
    ``[x, y]`` that is each row's location; it is None for unlabelled rows.
    Tables compare equal when every column is exactly equal.
    """

    rssi: np.ndarray
    timestamps: np.ndarray
    cells: np.ndarray | None = None

    def __post_init__(self):
        columns = {"rssi": np.asarray(self.rssi, dtype=np.float64),
                   "timestamps": np.asarray(self.timestamps, dtype=np.dtypes.StringDType())}
        if self.cells is not None:
            columns["cells"] = np.asarray(self.cells, dtype=np.int64).reshape(-1, 2)
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
                            None if self.cells is None else self.cells[index])


@dataclass(frozen=True)
class Dataset:
    labelled: Fingerprints
    unlabelled: Fingerprints
    layout: BeaconLayout


@dataclass(frozen=True)
class PathLossModel:
    """Log-distance propagation model for synthetic RSSI generation."""

    reference_power: float = -45.0  # dBm at the reference distance, one grid unit
    exponent: float = 2.2
    noise_std: float = 2.0  # dB
    detection_floor: float = -95.0  # dBm; weaker readings become no-signal

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"path-loss {f.name} must be finite, got {getattr(self, f.name)!r}")
        if self.exponent <= 0:
            raise ValueError("path-loss exponent must be positive")
        if self.noise_std < 0:
            raise ValueError("noise standard deviation must not be negative")
        if self.detection_floor < NO_SIGNAL:
            raise ValueError("detection floor below the no-signal value")


def encode_location_label(cell: tuple[int, int]) -> str:
    """Inverse of :func:`decode_location_label`: the label of the integer cell ``(col, row)``."""
    col, row = cell
    if not (0 <= col < GRID_SIZE and 0 <= row < GRID_SIZE):
        raise MalformedLabelError(f"cell ({col}, {row}) outside grid")
    return f"{chr(ord('A') + col)}{row:02d}"


def decode_location_label(label: str) -> tuple[int, int]:
    """Decode a ``<letter><digits>`` grid label to its integer cell ``(col, row)``.

    The ASCII letter A..Y, in either case, selects the column (A -> 0) and
    the ASCII digits select the row (must be < 25).
    """
    if len(label) < 2:
        raise MalformedLabelError(f"label {label!r} too short")
    letter, digits = label[0], label[1:]
    col = ord(letter.upper()) - ord("A") if letter.isascii() else -1  # "ß".upper() is "SS"
    if not (0 <= col < GRID_SIZE):
        raise MalformedLabelError(f"label {label!r}: letter must be A..Y")
    if not (digits.isascii() and digits.isdigit()):  # int() reads "٣" as 3 and refuses "²"
        raise MalformedLabelError(f"label {label!r}: row part is not numeric")
    row = digits.lstrip("0") or "0"
    if len(row) > 2 or int(row) >= GRID_SIZE:  # length first: int() refuses over 4300 digits
        raise MalformedLabelError(f"label {label!r}: row {row} >= {GRID_SIZE}")
    return col, int(row)


def checked(section, types: dict, what: str, error: type[FingerlocError], required: bool = False) -> dict:
    """The JSON object ``section``, whose keys must be in ``types`` (all of them if ``required``) and
    whose values must have their type; anything else raises ``error``, naming the key. An integer may
    stand for a float and is converted; a bool is not a number, and no integer may lie past the float
    range. The one reader of a JSON input's values: ``--config`` and ``--spec`` pass ``ConfigError``,
    and ``layout.json`` (:func:`load_layout`) passes ``LayoutError``."""
    if not isinstance(section, dict):
        raise error(f"the {what} must be a JSON object")
    unknown = sorted(set(section) - set(types))
    if unknown:
        raise error(f"unknown {what} keys: {unknown}")
    missing = sorted(set(types) - set(section)) if required else []
    if missing:
        raise error(f"{what} {json.dumps(section)} lacks keys: {missing}")
    values = {}
    for key, value in section.items():
        allowed = get_args(types[key]) or (types[key],)  # float | None -> (float, NoneType)
        if type(value) is int and abs(value) > sys.float_info.max:
            raise error(f"{what} {key}: an integer past the float range")
        if float in allowed and type(value) is int:
            value = float(value)
        if isinstance(value, bool) or not isinstance(value, allowed):
            name = getattr(types[key], "__name__", types[key])
            raise error(f"{what} {key}: {json.dumps(value)} is not of type {name}")
        values[key] = value
    return values


def load_layout(text: io.TextIOBase | str) -> BeaconLayout:
    """Parse a layout JSON document (a text stream or a str): grid size, cell feet, beacon positions.

    Its keys are ``grid``, ``cell_feet`` and ``beacons``, and each beacon has exactly ``id``, ``x``
    and ``y``, read through :func:`checked`: any other key is a ``LayoutError`` that names it. Every
    error keeps its type, and its message names the layout (``layout JSON, ...``)."""
    try:
        doc = json.loads(text if isinstance(text, str) else text.read())
    except (ValueError, RecursionError) as e:  # not UTF-8, not JSON, or nested past the interpreter's limit
        raise LayoutError(f"malformed layout JSON: {e!r}") from None
    try:
        doc = checked(doc, {"grid": list, "cell_feet": float, "beacons": list}, "document", LayoutError)
        beacons = [checked(b, {"id": str, "x": float, "y": float}, "beacon", LayoutError, required=True)
                   for b in doc.get("beacons", [])]
        grid = doc.get("grid", [GRID_SIZE, GRID_SIZE])
        if grid != [GRID_SIZE, GRID_SIZE]:
            raise LayoutError(f"unsupported grid {grid}, expected [{GRID_SIZE}, {GRID_SIZE}]")
        return BeaconLayout(ids=tuple(b["id"] for b in beacons), xs=tuple(b["x"] for b in beacons),
                            ys=tuple(b["y"] for b in beacons), cell_feet=doc.get("cell_feet", DEFAULT_CELL_FEET))
    except LayoutError as e:
        e.args = (f"layout JSON, {e}",)
        raise


def save_layout(layout: BeaconLayout, path: str | Path) -> None:
    write_json(path, {
        "grid": [GRID_SIZE, GRID_SIZE],
        "cell_feet": layout.cell_feet,
        "beacons": [
            {"id": bid, "x": x, "y": y}
            for bid, x, y in zip(layout.ids, layout.xs, layout.ys)
        ],
    })


def default_layout() -> BeaconLayout:
    return load_layout(_DEFAULT_LAYOUT_PATH.read_text(encoding="utf-8"))


def _out_of_range(line: int, v: float) -> RowError:
    return RowError(line, f"RSSI {v} outside [{NO_SIGNAL}, 0]")


def _parse_rssi_row(fields: Sequence[str], line: int) -> None:
    """Raise the error of the first field, in field order, that is not a number in [NO_SIGNAL, 0]."""
    for raw in fields:
        try:
            v = float(raw)
        except ValueError:
            raise RowError(line, f"non-numeric RSSI value {raw!r}") from None
        if not (NO_SIGNAL <= v <= 0.0):
            raise _out_of_range(line, v)


def _check_range(readings: array, lines: array, n_beacons: int) -> np.ndarray:
    """The first ``len(lines)`` rows of ``readings`` as an (N, n_beacons) view, once each reading is in
    [NO_SIGNAL, 0]; else the error of the first one that is not, NaN included, in row order."""
    rssi = np.frombuffer(readings, dtype=np.float64, count=len(lines) * n_beacons).reshape(-1, n_beacons)
    bad = ~((NO_SIGNAL <= rssi) & (rssi <= 0.0))
    if bad.any():
        row, column = np.argwhere(bad)[0]
        raise _out_of_range(lines[row], float(rssi[row, column]))
    return rssi


def _csv_rows(stream: io.TextIOBase | str, layout: BeaconLayout, lead: tuple[str, ...]):
    """Check the ``<lead...>,<beacons...>`` header, then yield
    (line number, stripped lead fields, RSSI fields) for each non-empty row, where the line number is
    the physical line the row starts on. A record the ``csv`` module cannot read, such as one with a
    field past its size limit, is a ``SchemaError`` in the header and a ``RowError`` in a row."""
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError("no header row") from None
    except csv.Error as e:
        raise SchemaError(f"header: {e}") from None
    expected = len(lead) + layout.n_beacons
    if len(header) != expected or [h.strip().lower() for h in header[:len(lead)]] != list(lead):
        raise SchemaError(
            f"header must be {','.join(lead)},<{layout.n_beacons} beacon columns>; got {len(header)} columns"
        )
    for column, (name, beacon) in enumerate(zip(header[len(lead):], layout.ids), start=len(lead) + 1):
        if name.strip() != beacon:
            raise SchemaError(f"header column {column} is {name.strip()!r}, expected beacon {beacon!r}")
    start = reader.line_num + 1  # the physical line the next record starts on; a quoted field may span lines
    try:
        for row in reader:
            lineno, start = start, reader.line_num + 1
            if not row:
                continue
            if len(row) != expected:
                raise RowError(lineno, f"expected {expected} columns, got {len(row)}")
            yield lineno, [f.strip() for f in row[:len(lead)]], row[len(lead):]
    except csv.Error as e:  # raised while reading the record that starts on line start
        raise RowError(start, str(e)) from None


def _parse_table(stream: io.TextIOBase | str, layout: BeaconLayout, lead: tuple[str, ...], what: str,
                 take_lead) -> np.ndarray:
    """The readings of each row of a ``<lead...>,<beacons...>`` CSV (see :func:`_csv_rows`), as an
    (N, n_beacons) float64 matrix; each row's stripped lead fields go to ``take_lead`` first.

    Every reading goes straight into one flat float64 buffer, and the range is checked over the whole
    buffer at the end. An error is still the first in file order: a field ``float`` refuses re-reads its
    row field by field, and any other error in a row is raised after the rows before it are checked.
    Every error keeps its type, and its message names the table (``labelled CSV, line 41: ...``)."""
    readings, lines = array("d"), array("q")
    try:
        try:
            for line, lead_fields, fields in _csv_rows(stream, layout, lead):
                take_lead(*lead_fields)
                try:
                    readings.extend(map(float, fields))
                except ValueError:
                    _parse_rssi_row(fields, line)
                lines.append(line)
        except FingerlocError:
            _check_range(readings, lines, layout.n_beacons)
            raise
        return _check_range(readings, lines, layout.n_beacons)
    except FingerlocError as e:  # a bad label comes only from take_lead, on line ``line``; the others name theirs
        label_line = f"line {line}: " if isinstance(e, MalformedLabelError) else ""
        e.args = (f"{what} CSV, {label_line}{e}",)
        raise


def parse_labelled_csv(stream: io.TextIOBase | str, layout: BeaconLayout) -> Fingerprints:
    """Parse a ``location,date,<beacons...>`` CSV into a labelled table."""
    timestamps, cells = [], []

    def take_lead(label: str, timestamp: str) -> None:
        cells.append(decode_location_label(label))
        timestamps.append(timestamp)

    rssi = _parse_table(stream, layout, ("location", "date"), "labelled", take_lead)
    return Fingerprints(rssi, timestamps, cells)


def parse_unlabelled_csv(stream: io.TextIOBase | str, layout: BeaconLayout) -> Fingerprints:
    """Parse a ``date,<beacons...>`` CSV into an unlabelled table."""
    timestamps = []
    rssi = _parse_table(stream, layout, ("date",), "unlabelled", timestamps.append)
    return Fingerprints(rssi, timestamps)


def load_dataset(labelled: io.TextIOBase | str, unlabelled: io.TextIOBase | str | None, layout: BeaconLayout) -> Dataset:
    """Parse a labelled CSV and, if given, an unlabelled one: each a text stream or a str, as
    :func:`parse_labelled_csv` takes."""
    labelled = parse_labelled_csv(labelled, layout)
    unlabelled = (Fingerprints(np.empty((0, layout.n_beacons)), []) if unlabelled is None
                  else parse_unlabelled_csv(unlabelled, layout))
    return Dataset(labelled=labelled, unlabelled=unlabelled, layout=layout)


def write_table(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a CSV file, UTF-8: the ``header`` row, then each of ``rows``. The toolkit's only CSV writer, and the
    one owner of a cell's text: a float is written as its repr, the shortest text that reads back to the same
    float, and None as an empty field."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path: str | Path, doc) -> None:
    """Write ``doc`` as UTF-8 JSON with indent 2, sorted keys and a final newline. The toolkit's only JSON
    writer. JSON has no infinity or NaN: a document holding one is a ``NumericalError`` naming ``path``,
    raised before the file is opened."""
    try:
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as e:
        raise NumericalError(f"cannot write {path}: {e}") from None
    with open(path, "w", encoding="utf-8") as f:
        f.write(text + "\n")


def _write_readings(path: str | Path, header: Sequence[str], rssi: np.ndarray, *lead: Iterable) -> None:
    """Write a table through :func:`write_table`: row k is the k-th item of each ``lead`` column, then the
    readings ``rssi[k]``. A whole number is passed as an int (``-200``, and ``0`` for -0.0), any other reading
    as its Python float, which ``csv`` writes as its repr, the shortest text that parses back to the same bits.
    The values are made a block of rows at a time, so no Python object per reading of the whole table is alive
    at once. A reading that is not finite is a ``NumericalError`` naming ``path``, raised before the file is
    opened."""
    finite = np.isfinite(rssi)
    if not finite.all():
        raise NumericalError(f"cannot write {path}: an RSSI reading is {float(rssi[~finite][0])!r}")
    blocks = (rssi[start:start + _SYNTH_BLOCK_ROWS].ravel() for start in range(0, len(rssi), _SYNTH_BLOCK_ROWS))
    values = (int(v) if whole else v
              for block in blocks for v, whole in zip(block.tolist(), (block == np.trunc(block)).tolist()))
    write_table(path, header, zip(*lead, *[values] * rssi.shape[1]))


def write_labelled_csv(table: Fingerprints, layout: BeaconLayout, path: str | Path) -> None:
    """Write labelled rows as UTF-8, each location as its cell's canonical label. A cell off the grid is a
    ``MalformedLabelError``, raised before the file is opened."""
    _write_readings(path, ["location", "date", *layout.ids], table.rssi,
                    [encode_location_label(cell) for cell in table.cells.tolist()], table.timestamps)


def write_unlabelled_csv(table: Fingerprints, layout: BeaconLayout, path: str | Path) -> None:
    """Write unlabelled rows as UTF-8."""
    _write_readings(path, ["date", *layout.ids], table.rssi, table.timestamps)


def split(table: Fingerprints, ratio: float, seed: int) -> tuple[Fingerprints, Fingerprints]:
    """Seeded shuffle then prefix/suffix cut; train size = floor(ratio * N)."""
    if not (0.0 <= ratio <= 1.0):
        raise ValueError(f"split ratio {ratio} outside [0, 1]")
    rng = np.random.Generator(np.random.PCG64(seed))
    order = rng.permutation(len(table))
    n_train = int(math.floor(ratio * len(table)))
    return table.take(order[:n_train]), table.take(order[n_train:])


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


def synth_rssi(layout: BeaconLayout, model: PathLossModel, xy: np.ndarray,
               noise: np.ndarray | None = None) -> np.ndarray:
    """RSSI rows at the grid positions ``xy`` (n, 2) under the path-loss model,
    plus ``noise`` (n, n_beacons) dB if given.

    Distances and logs are taken with ``math``, a block of rows at a time:
    numpy's SIMD ``hypot`` and ``log10`` round some values differently.
    """
    xy = np.asarray(xy, dtype=np.float64)
    bx, by = np.asarray(layout.xs, dtype=np.float64), np.asarray(layout.ys, dtype=np.float64)
    rssi = np.empty((len(xy), layout.n_beacons))
    for start in range(0, len(xy), _SYNTH_BLOCK_ROWS):
        x, y = xy[start:start + _SYNTH_BLOCK_ROWS, :1], xy[start:start + _SYNTH_BLOCK_ROWS, 1:]
        rows = rssi[start:start + _SYNTH_BLOCK_ROWS]
        hypot = map(math.hypot, (bx - x).ravel().tolist(), (by - y).ravel().tolist())
        dist = map(max, hypot, repeat(1.0))  # grid units: the reference distance is one
        rows[...] = np.fromiter(map(math.log10, dist), np.float64, rows.size).reshape(rows.shape)
    rssi *= 10.0 * model.exponent  # in place: reference_power - 10.0 * exponent * log10(dist)
    np.subtract(model.reference_power, rssi, out=rssi)
    if noise is not None:
        rssi += noise
    rssi[rssi < model.detection_floor] = NO_SIGNAL
    rssi[0.0 < rssi] = 0.0  # min(rssi, 0.0): not np.minimum, which may pick either signed zero
    return rssi


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
    timestamps = [f"synth-{k}-{j}" for k in range(n_locations) for j in range(samples_per_location)]
    noisy = model.noise_std > 0
    # one block draw is the stream of len(cells) * n_beacons scalar draws, row by row
    noise = rng.normal(0.0, model.noise_std, size=(len(cells), layout.n_beacons)) if noisy else None
    labelled = Fingerprints(synth_rssi(layout, model, cells, noise), timestamps, cells)
    # each position's two uniforms come before its noise in the stream, and a
    # normal takes a varying number of words, so draw one sample at a time
    xy = np.empty((n_unlabelled, 2))
    noise = np.empty((n_unlabelled, layout.n_beacons)) if noisy else None
    for k in range(n_unlabelled):
        xy[k] = rng.uniform(0.0, GRID_SIZE, size=2)
        if noisy:
            noise[k] = rng.normal(0.0, model.noise_std, size=layout.n_beacons)
    unlabelled = Fingerprints(synth_rssi(layout, model, xy, noise),
                              [f"synth-u-{k}" for k in range(n_unlabelled)])
    return Dataset(labelled=labelled, unlabelled=unlabelled, layout=layout)
