import csv
import io
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fingerloc import data
from conftest import labelled_table
from fingerloc.errors import LayoutError, MalformedLabelError, NumericalError, RowError, SchemaError


class TestLocationCodec:
    def test_a01(self):
        assert data.decode_location_label("A01") == (0, 1)

    def test_o02(self):
        assert data.decode_location_label("O02") == (14, 2)

    def test_letter_out_of_range(self):
        with pytest.raises(MalformedLabelError):
            data.decode_location_label("Z05")

    def test_row_out_of_range(self):
        with pytest.raises(MalformedLabelError):
            data.decode_location_label("A25")

    def test_non_numeric_row(self):
        with pytest.raises(MalformedLabelError):
            data.decode_location_label("Axy")

    @given(st.integers(0, 24), st.integers(0, 24))
    def test_round_trip(self, col, row):
        assert data.decode_location_label(data.encode_location_label((col, row))) == (col, row)

    @given(st.text())
    @example("A\u00b2")  # superscript two: isdigit() holds but int() refuses it
    @example("A\u0663")  # Arabic-Indic three: int() reads it as 3
    @example("\u00df1")  # sharp s: its upper case is two letters
    @example("A" + "0" * 5000 + "1")  # int() refuses more than 4300 digits
    def test_any_text_is_an_ascii_label_of_a_cell_or_malformed(self, label):
        try:
            col, row = data.decode_location_label(label)
        except MalformedLabelError:
            return
        assert label.isascii()
        assert 0 <= col < data.GRID_SIZE and 0 <= row < data.GRID_SIZE

    @given(st.sampled_from("ABCDEFGHIJKLMNOPQRSTUVWXY"), st.integers(0, 24))
    def test_canonical_label_round_trip(self, letter, row):
        label = f"{letter}{row:02d}"
        assert data.encode_location_label(data.decode_location_label(label)) == label


DEFAULT_IDS = data.default_layout().ids


def _labelled_csv(layout, rows):
    header = "location,date," + ",".join(layout.ids)
    return "\n".join([header, *rows]) + "\n"


class TestParsing:
    def test_labelled_counts(self, layout):
        rows = [f"A0{i},2024-01-0{i+1}," + ",".join(["-70"] * 13) for i in range(3)]
        table = data.parse_labelled_csv(_labelled_csv(layout, rows), layout)
        assert len(table) == 3
        assert table.cells[0].tolist() == [0, 0]
        assert table.rssi[0].tolist() == [-70.0] * 13

    def test_all_no_signal_row_accepted(self, layout):
        rows = ["B02,ts," + ",".join(["-200"] * 13)]
        table = data.parse_labelled_csv(_labelled_csv(layout, rows), layout)
        assert table.rssi[0].tolist() == [data.NO_SIGNAL] * 13

    def test_rssi_out_of_range(self, layout):
        rows = ["A00,ts," + ",".join(["-70"] * 12 + ["-201"])]
        with pytest.raises(RowError, match="line 2: "):
            data.parse_labelled_csv(_labelled_csv(layout, rows), layout)

    def test_positive_rssi_rejected(self, layout):
        rows = ["A00,ts," + ",".join(["-70"] * 12 + ["5"])]
        with pytest.raises(RowError):
            data.parse_labelled_csv(_labelled_csv(layout, rows), layout)

    def test_extra_column_rejected(self, layout):
        header = "location,date,extra," + ",".join(layout.ids)
        with pytest.raises(SchemaError):
            data.parse_labelled_csv(header + "\n", layout)

    @pytest.mark.parametrize("parse, lead", [(data.parse_labelled_csv, "location,date"),
                                             (data.parse_unlabelled_csv, "date")],
                             ids=["labelled", "unlabelled"])
    @pytest.mark.parametrize("beacons, first_wrong", [
        (DEFAULT_IDS[::-1], "b3013"),
        (tuple(f"x{i}" for i in range(13)), "x0"),
        (DEFAULT_IDS[:5] + ("b3007", "b3006") + DEFAULT_IDS[7:], "b3007"),
    ], ids=["reversed", "unknown", "two-swapped"])
    def test_beacon_columns_must_follow_the_layout(self, layout, parse, lead, beacons, first_wrong):
        with pytest.raises(SchemaError, match=f"is '{first_wrong}'"):
            parse(lead + "," + ",".join(beacons) + "\n", layout)

    def test_beacon_columns_compared_after_strip(self, layout):
        header = "location,date," + ",".join(f" {b} " for b in layout.ids)
        rows = ["A01,ts," + ",".join(["-70"] * 13)]
        assert len(data.parse_labelled_csv("\n".join([header, *rows]), layout)) == 1

    def test_field_past_the_csv_limit_is_a_row_or_schema_error(self, layout):
        # the csv module refuses a field past 131072 characters; its limit is process-wide, so it stays
        long = "A" * 200_000
        rows = ["A01,ts," + ",".join(["-70"] * 13), "", long + ",ts," + ",".join(["-70"] * 13)]
        with pytest.raises(RowError, match="line 4: field larger than field limit"):
            data.parse_labelled_csv(_labelled_csv(layout, rows), layout)
        with pytest.raises(SchemaError, match="unlabelled CSV, header: field larger"):
            data.parse_unlabelled_csv(long + "," + ",".join(layout.ids) + "\n", layout)

    def test_row_errors_name_the_physical_line_after_a_field_that_spans_lines(self, layout):
        # the first row's date is "two\nlines", so the third row starts on line 5, not on record 4
        rows = ['A01,"two\nlines",' + ",".join(["-70"] * 13), "A01,ts," + ",".join(["-70"] * 13),
                "A01,ts," + ",".join(["strong"] * 13)]
        with pytest.raises(RowError, match="line 5: non-numeric RSSI value 'strong'"):
            data.parse_labelled_csv(_labelled_csv(layout, rows), layout)
        rows[2] = "A" * 200_000 + ",ts," + ",".join(["-70"] * 13)
        with pytest.raises(RowError, match="line 5: field larger than field limit"):
            data.parse_labelled_csv(_labelled_csv(layout, rows), layout)

    def test_wrong_column_count_in_row(self, layout):
        rows = ["A00,ts,-70"]
        with pytest.raises(RowError):
            data.parse_labelled_csv(_labelled_csv(layout, rows), layout)

    @pytest.mark.parametrize("parse, lead, row_lead", [(data.parse_labelled_csv, "location,date", "A01,ts"),
                                                       (data.parse_unlabelled_csv, "date", "ts")],
                             ids=["labelled", "unlabelled"])
    def test_every_error_names_its_table(self, layout, parse, lead, row_lead):
        table = "labelled" if parse is data.parse_labelled_csv else "unlabelled"
        header = f"{lead}," + ",".join(layout.ids)
        columns = header.count(",") + 1
        with pytest.raises(SchemaError, match=f"^{table} CSV, header must be {lead},"):
            parse(header + ",extra\n", layout)
        with pytest.raises(SchemaError, match=f"^{table} CSV, no header row$"):
            parse("", layout)
        with pytest.raises(RowError, match=f"^{table} CSV, line 3: expected {columns} columns, got {columns - 1}$"):
            parse(f"{header}\n{row_lead}," + ",".join(["-70"] * 13) + f"\n{row_lead}," + ",".join(["-70"] * 12),
                  layout)

    def test_a_bad_label_names_the_table_and_its_line(self, layout):
        rows = ["A01,ts," + ",".join(["-70"] * 13), "Z01,ts," + ",".join(["-70"] * 13)]
        with pytest.raises(MalformedLabelError, match=re.escape("labelled CSV, line 3: label 'Z01': letter must be")):
            data.parse_labelled_csv(_labelled_csv(layout, rows), layout)

    def test_unlabelled(self, layout):
        header = "date," + ",".join(layout.ids)
        body = header + "\nts1," + ",".join(["-60"] * 13) + "\n"
        table = data.parse_unlabelled_csv(body, layout)
        assert len(table) == 1
        assert table.timestamps[0] == "ts1"

    @pytest.mark.parametrize("parse, lead, row_lead", [(data.parse_labelled_csv, "location,date", "A01,ts"),
                                                       (data.parse_unlabelled_csv, "date", "ts")],
                             ids=["labelled", "unlabelled"])
    def test_blank_lines_skipped(self, layout, parse, lead, row_lead):
        lines = [f"{lead}," + ",".join(layout.ids),
                 *(f"{row_lead}," + ",".join([str(-60 - i)] * 13) for i in range(3))]
        plain = parse("\n".join(lines) + "\n", layout)
        assert len(plain) == 3
        assert parse("\n\n".join(lines) + "\n\n", layout) == plain

    def test_timestamp_preserved(self, layout):
        rows = ["C03,opaque-stamp," + ",".join(["-70"] * 13)]
        table = data.parse_labelled_csv(_labelled_csv(layout, rows), layout)
        assert table.timestamps[0] == "opaque-stamp"


class TestSplit:
    def test_sizes(self, synth_dataset):
        n = len(synth_dataset.labelled)
        train, test = data.split(synth_dataset.labelled, 0.8, 0)
        assert len(train) == math.floor(0.8 * n)
        assert len(train) + len(test) == n

    def test_ratio_one(self, synth_dataset):
        train, test = data.split(synth_dataset.labelled, 1.0, 0)
        assert len(test) == 0
        assert len(train) == len(synth_dataset.labelled)

    def test_deterministic(self, synth_dataset):
        a = data.split(synth_dataset.labelled, 0.8, 42)
        b = data.split(synth_dataset.labelled, 0.8, 42)
        assert a == b

    def test_disjoint_union(self, synth_dataset):
        train, test = data.split(synth_dataset.labelled, 0.7, 3)
        combined = sorted(train.timestamps.tolist() + test.timestamps.tolist())
        assert combined == sorted(synth_dataset.labelled.timestamps.tolist())

    def test_bad_ratio(self, synth_dataset):
        with pytest.raises(ValueError):
            data.split(synth_dataset.labelled, 1.5, 0)

    @given(st.integers(0, 40), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
    def test_partition_of_row_indices(self, n, ratio, seed):
        table = labelled_table([(0, 0)] * n, np.zeros((n, 1)), [str(i) for i in range(n)])
        train, test = data.split(table, ratio, seed)
        assert len(train) == math.floor(ratio * n)
        rows = [int(t) for t in train.timestamps.tolist() + test.timestamps.tolist()]
        assert sorted(rows) == list(range(n))


class TestUnderrepresented:
    def test_threshold_one_is_empty(self, synth_dataset):
        assert data.find_underrepresented(synth_dataset.labelled, 1) == []

    def test_two_samples_threshold_three(self):
        table = labelled_table([(1, 1), (1, 1)], [[-70.0] * 13, [-60.0] * 13])
        result = data.find_underrepresented(table, 3)
        assert [(cell, rows.tolist()) for cell, rows in result] == [((1, 1), [0, 1])]

    def test_monotone_in_threshold(self, synth_dataset):
        small = {cell for cell, _ in data.find_underrepresented(synth_dataset.labelled, 3)}
        large = {cell for cell, _ in data.find_underrepresented(synth_dataset.labelled, 6)}
        assert small <= large

    def test_bad_threshold(self):
        with pytest.raises(ValueError):
            data.find_underrepresented([], 0)


class TestSynthGenerate:
    def test_rssi_at_reference_distance(self, layout):
        model = data.PathLossModel(reference_power=-45.0, noise_std=0.0,
                                   detection_floor=data.NO_SIGNAL)
        [rssi] = data.synth_rssi(layout, model, [[layout.xs[0] + 1.0, layout.ys[0]]])
        assert rssi[0] == pytest.approx(-45.0)

    def test_clamped_to_no_signal(self, layout):
        model = data.PathLossModel(reference_power=-190.0, exponent=6.0, noise_std=0.0,
                                   detection_floor=data.NO_SIGNAL)
        [rssi] = data.synth_rssi(layout, model, [[0.0, 24.0]])
        assert min(rssi) == data.NO_SIGNAL

    def test_receiver_on_beacon_distance_floored(self, layout):
        model = data.PathLossModel(noise_std=0.0, detection_floor=data.NO_SIGNAL)
        [rssi] = data.synth_rssi(layout, model, [[layout.xs[0], layout.ys[0]]])
        assert rssi[0] == pytest.approx(model.reference_power)

    def test_deterministic(self, layout):
        model = data.PathLossModel()
        a = data.synth_generate(layout, model, 10, 3, seed=5, n_unlabelled=7)
        b = data.synth_generate(layout, model, 10, 3, seed=5, n_unlabelled=7)
        assert a == b

    def test_counts(self, layout):
        model = data.PathLossModel()
        ds = data.synth_generate(layout, model, 12, 4, seed=1, n_unlabelled=9)
        assert len(ds.labelled) == 48
        assert len(ds.unlabelled) == 9

    def test_all_values_in_range(self, synth_dataset):
        for table in (synth_dataset.labelled, synth_dataset.unlabelled):
            assert ((data.NO_SIGNAL <= table.rssi) & (table.rssi <= 0.0)).all()

    def test_labels_decode_to_locations(self, synth_dataset, tmp_path):
        path = tmp_path / "labelled.csv"
        data.write_labelled_csv(synth_dataset.labelled, synth_dataset.layout, path)
        with open(path, newline="") as f:
            labels = [row["location"] for row in csv.DictReader(f)]
        assert [list(data.decode_location_label(label)) for label in labels] == synth_dataset.labelled.cells.tolist()


def _reference_rssi(layout, model, x, y, rng):
    """One RSSI vector, a scalar at a time: the reference that the block generator must match bit for bit."""
    values = []
    for bx, by in zip(layout.xs, layout.ys):
        dist = max(math.hypot(bx - x, by - y), 1.0)
        rssi = model.reference_power - 10.0 * model.exponent * math.log10(dist)
        if model.noise_std > 0:
            rssi += rng.normal(0.0, model.noise_std)
        if rssi < model.detection_floor:
            rssi = data.NO_SIGNAL
        values.append(min(max(rssi, data.NO_SIGNAL), 0.0))
    return values


def _reference_generate(layout, model, n_locations, samples_per_location, seed, n_unlabelled):
    """(cells, labelled rssi, unlabelled rssi) as the per-sample generator drew them."""
    rng = np.random.Generator(np.random.PCG64(seed))
    flat = rng.choice(data.GRID_SIZE ** 2, size=n_locations, replace=False)
    cells = np.repeat(np.stack([flat // data.GRID_SIZE, flat % data.GRID_SIZE], axis=1),
                      samples_per_location, axis=0)
    labelled = [_reference_rssi(layout, model, float(cx), float(cy), rng) for cx, cy in cells.tolist()]
    unlabelled = []
    for _ in range(n_unlabelled):
        x = rng.uniform(0.0, data.GRID_SIZE)
        y = rng.uniform(0.0, data.GRID_SIZE)
        unlabelled.append(_reference_rssi(layout, model, x, y, rng))
    shape = (-1, layout.n_beacons)
    return cells, np.array(labelled).reshape(shape), np.array(unlabelled).reshape(shape)


THREE_BEACONS = data.BeaconLayout(ids=("p", "q", "r"), xs=(0.5, 12.25, 24.75), ys=(3.3, 0.0, 19.9))

# (id, layout or None for the default, model)
REFERENCE_CASES = [
    ("default", None, data.PathLossModel()),
    ("noiseless", None, data.PathLossModel(noise_std=0.0)),
    ("floor-75", None, data.PathLossModel(detection_floor=-75.0)),  # about 7% no-signal
    ("noise30", None, data.PathLossModel(noise_std=30.0)),  # reaches both clamps
    ("weak-steep", None, data.PathLossModel(reference_power=-190.0, exponent=6.0)),
    ("three-beacons", THREE_BEACONS, data.PathLossModel()),
]


class TestSynthMatchesPerSampleReference:
    @pytest.mark.parametrize("n_unlabelled", [0, 1, 150])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("case_layout, model", [c[1:] for c in REFERENCE_CASES],
                             ids=[c[0] for c in REFERENCE_CASES])
    def test_bit_equal(self, layout, case_layout, model, seed, n_unlabelled):
        case_layout = case_layout or layout
        cells, labelled, unlabelled = _reference_generate(case_layout, model, 30, 3, seed, n_unlabelled)
        ds = data.synth_generate(case_layout, model, 30, 3, seed=seed, n_unlabelled=n_unlabelled)
        assert np.array_equal(ds.labelled.cells, cells)
        assert ds.labelled.rssi.shape == labelled.shape and ds.unlabelled.rssi.shape == unlabelled.shape
        assert np.array_equal(ds.labelled.rssi.view(np.uint64), labelled.view(np.uint64))
        assert np.array_equal(ds.unlabelled.rssi.view(np.uint64), unlabelled.view(np.uint64))

    def test_cases_reach_the_clamps(self, layout):
        """The no-signal and 0 dBm clamps act in the cases above, so their bit-equality covers them."""
        def rssi(model):
            ds = data.synth_generate(layout, model, 30, 3, seed=0, n_unlabelled=150)
            return np.concatenate([ds.labelled.rssi, ds.unlabelled.rssi])
        assert 0.02 < (rssi(data.PathLossModel(detection_floor=-75.0)) == data.NO_SIGNAL).mean() < 0.2
        noisy = rssi(data.PathLossModel(noise_std=30.0))
        assert (noisy == data.NO_SIGNAL).any() and (noisy == 0.0).any()
        assert (rssi(data.PathLossModel(reference_power=-190.0, exponent=6.0)) == data.NO_SIGNAL).all()


path_loss_models = st.builds(
    data.PathLossModel,
    reference_power=st.floats(-120.0, 20.0),
    exponent=st.floats(0.5, 6.0),
    noise_std=st.floats(0.0, 30.0),
    detection_floor=st.floats(data.NO_SIGNAL, 0.0),
)


class TestSynthInvariants:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 20), st.integers(1, 4), st.integers(0, 20),
           path_loss_models)
    def test_readings_cells_and_csv_round_trip(self, layout, tmp_path_factory, seed, n_locations,
                                               per_location, n_unlabelled, model):
        ds = data.synth_generate(layout, model, n_locations, per_location, seed=seed,
                                 n_unlabelled=n_unlabelled)
        for table in (ds.labelled, ds.unlabelled):
            signal = table.rssi != data.NO_SIGNAL
            assert ((model.detection_floor <= table.rssi) & (table.rssi <= 0.0))[signal].all()
        cells, counts = np.unique(ds.labelled.cells, axis=0, return_counts=True)
        assert len(cells) == n_locations and (counts == per_location).all()
        assert len(ds.unlabelled) == n_unlabelled
        out = tmp_path_factory.mktemp("synth")
        data.write_labelled_csv(ds.labelled, layout, out / "labelled.csv")
        data.write_unlabelled_csv(ds.unlabelled, layout, out / "unlabelled.csv")
        assert data.parse_labelled_csv((out / "labelled.csv").read_text(), layout) == ds.labelled
        assert data.parse_unlabelled_csv((out / "unlabelled.csv").read_text(), layout) == ds.unlabelled


class TestPathLossModel:
    @pytest.mark.parametrize("field", ["reference_power", "exponent", "noise_std", "detection_floor"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_field_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            data.PathLossModel(**{field: value})

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError, match="noise"):
            data.PathLossModel(noise_std=-1.0)


class TestLayout:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(LayoutError):
            data.BeaconLayout(ids=("a", "a"), xs=(1.0, 2.0), ys=(1.0, 2.0))

    def test_out_of_grid_rejected(self):
        with pytest.raises(LayoutError):
            data.BeaconLayout(ids=("a",), xs=(25.0,), ys=(1.0,))

    @pytest.mark.parametrize("cell_feet", [-10.0, 0.0, math.nan, math.inf])
    def test_cell_feet_must_be_finite_and_positive(self, cell_feet):
        with pytest.raises(LayoutError, match="cell_feet"):
            data.BeaconLayout(ids=("a",), xs=(1.0,), ys=(1.0,), cell_feet=cell_feet)

    def test_default_layout_has_13_beacons(self, layout):
        assert layout.n_beacons == 13
        assert layout.cell_feet == 10.0

    def test_round_trip(self, layout, tmp_path):
        path = tmp_path / "layout.json"
        data.save_layout(layout, path)
        assert data.load_layout(path.read_text()) == layout

    beacon_ids = st.text(min_size=1, max_size=8).filter(lambda s: s == s.strip())
    coordinates = st.floats(0.0, data.GRID_SIZE, exclude_max=True)

    @given(st.data())
    def test_saved_layout_loads_back_and_any_other_key_is_refused(self, tmp_path_factory, gen):
        ids = gen.draw(st.lists(self.beacon_ids, min_size=1, max_size=6, unique=True))
        xs, ys = (tuple(gen.draw(st.lists(self.coordinates, min_size=len(ids), max_size=len(ids))))
                  for _ in "xy")
        cell_feet = gen.draw(st.floats(0.0, exclude_min=True, allow_infinity=False))
        layout = data.BeaconLayout(tuple(ids), xs, ys, cell_feet)
        path = tmp_path_factory.mktemp("layout") / "layout.json"
        data.save_layout(layout, path)
        assert data.load_layout(path.read_text()) == layout

        doc = json.loads(path.read_text())
        where = gen.draw(st.sampled_from([None, *range(len(ids))]))  # None: the top level, else a beacon
        target, known = ((doc, {"grid", "cell_feet", "beacons"}) if where is None
                         else (doc["beacons"][where], {"id", "x", "y"}))
        key = gen.draw(st.text().filter(lambda k: k not in known))
        target[key] = gen.draw(st.none() | st.booleans() | st.integers() | st.text())
        with pytest.raises(LayoutError, match=re.escape(repr(key))):
            data.load_layout(json.dumps(doc))

    @pytest.mark.parametrize("text", [
        "{not json", "[]", '{"z": 1}', '{"cell_feet": "10"}', '{"grid": [10, 10]}', '{"beacons": []}',
        '{"beacons": [{"id": "a", "x": 1}]}', '{"beacons": [{"id": "a", "x": 25, "y": 1}]}',
        '{"beacons": [{"id": "a", "x": 1, "y": 1}], "cell_feet": -1}',
    ], ids=["not-json", "not-an-object", "unknown-key", "mistyped", "grid", "no-beacons", "missing-key",
            "off-grid", "cell-feet"])
    def test_each_error_names_the_layout_once(self, text):
        with pytest.raises(LayoutError) as e:
            data.load_layout(text)
        assert str(e.value).count("layout") == 1 and "layout JSON" in str(e.value)


class TestCsvRoundTrip:
    def test_labelled_round_trip(self, synth_dataset, tmp_path):
        path = tmp_path / "labelled.csv"
        data.write_labelled_csv(synth_dataset.labelled, synth_dataset.layout, path)
        with open(path) as f:
            parsed = data.parse_labelled_csv(f.read(), synth_dataset.layout)
        assert parsed == synth_dataset.labelled

    def test_labels_written_in_canonical_form(self, layout, tmp_path):
        rows = [f"{label},ts," + ",".join(["-70"] * 13) for label in ("a1", "A001", "A01", "y24")]
        path = tmp_path / "labelled.csv"
        data.write_labelled_csv(data.parse_labelled_csv(_labelled_csv(layout, rows), layout), layout, path)
        with open(path, newline="") as f:
            assert [row["location"] for row in csv.DictReader(f)] == ["A01", "A01", "A01", "Y24"]

    def test_unlabelled_round_trip(self, synth_dataset, tmp_path):
        path = tmp_path / "unlabelled.csv"
        data.write_unlabelled_csv(synth_dataset.unlabelled, synth_dataset.layout, path)
        with open(path) as f:
            parsed = data.parse_unlabelled_csv(f.read(), synth_dataset.layout)
        assert parsed == synth_dataset.unlabelled

    # exact: a float written as repr(np.float64(...)) would not parse back
    rssi_rows = st.lists(st.lists(st.floats(data.NO_SIGNAL, 0.0), min_size=13, max_size=13), max_size=12)
    # the reader strips each lead field, so a stamp keeps only inner spaces and line breaks
    stamps = st.text(alphabet='abcXYZ0123456789-:.,"\r\n \x00', max_size=10).filter(lambda s: s == s.strip())

    @given(st.data())
    def test_labelled_round_trip_property(self, layout, tmp_path_factory, gen):
        rssi = gen.draw(self.rssi_rows)
        n = len(rssi)
        cells = gen.draw(st.lists(st.tuples(st.integers(0, 24), st.integers(0, 24)), min_size=n, max_size=n))
        stamps = gen.draw(st.lists(self.stamps, min_size=n, max_size=n))
        table = labelled_table(cells, np.array(rssi).reshape(n, 13), stamps)
        path = tmp_path_factory.mktemp("csv") / "labelled.csv"
        data.write_labelled_csv(table, layout, path)
        with open(path, encoding="utf-8", newline="") as f:
            assert data.parse_labelled_csv(f, layout) == table

    @given(rssi_rows, st.data())
    def test_unlabelled_round_trip_property(self, layout, tmp_path_factory, rssi, gen):
        stamps = gen.draw(st.lists(self.stamps, min_size=len(rssi), max_size=len(rssi)))
        table = data.Fingerprints(np.array(rssi).reshape(len(rssi), 13), stamps)
        path = tmp_path_factory.mktemp("csv") / "unlabelled.csv"
        data.write_unlabelled_csv(table, layout, path)
        with open(path, encoding="utf-8", newline="") as f:
            assert data.parse_unlabelled_csv(f, layout) == table

    def test_a_stamp_ending_in_nul_keeps_it(self, layout, tmp_path):
        table = data.Fingerprints(np.full((2, 13), -70.0), ["ts\x00", "\x00"])
        path = tmp_path / "unlabelled.csv"
        data.write_unlabelled_csv(table, layout, path)
        with open(path, encoding="utf-8", newline="") as f:
            parsed = data.parse_unlabelled_csv(f, layout)
        assert parsed.timestamps.tolist() == ["ts\x00", "\x00"]


def _reference_parse(text: str, layout, labelled: bool):
    """The per-row parser the flat-buffer one replaced: each row's fields are read and range-checked in field
    order as the row is met, so the first error in the file is the one raised. Its message starts with the
    table, then a bad label's line."""
    cells, stamps, rows = [], [], []
    lead = ("location", "date") if labelled else ("date",)
    try:
        for line, lead_fields, fields in data._csv_rows(text, layout, lead):
            if labelled:
                try:
                    cells.append(data.decode_location_label(lead_fields[0]))
                except MalformedLabelError as e:
                    raise MalformedLabelError(f"line {line}: {e}") from None
            stamps.append(lead_fields[-1])
            values = []
            for raw in fields:
                try:
                    v = float(raw)
                except ValueError:
                    raise RowError(line, f"non-numeric RSSI value {raw!r}") from None
                if not (data.NO_SIGNAL <= v <= 0.0):
                    raise RowError(line, f"RSSI {v} outside [{data.NO_SIGNAL}, 0]")
                values.append(v)
            rows.append(values)
    except (RowError, SchemaError, MalformedLabelError) as e:
        e.args = (f"{'labelled' if labelled else 'unlabelled'} CSV, {e}",)
        raise
    rssi = np.array(rows, dtype=np.float64).reshape(len(rows), layout.n_beacons)
    return data.Fingerprints(rssi, stamps, cells if labelled else None)


def _outcome(parse, text: str, layout, labelled: bool):
    """The table's columns, bit for bit, or the error's type and message."""
    try:
        table = parse(text, layout, labelled)
    except (RowError, SchemaError, MalformedLabelError) as e:
        return type(e).__name__, str(e)
    cells = None if table.cells is None else table.cells.tolist()
    return table.rssi.shape, table.rssi.tobytes(), table.timestamps.tolist(), cells


def _parse(text: str, layout, labelled: bool):
    return (data.parse_labelled_csv if labelled else data.parse_unlabelled_csv)(text, layout)


READINGS = st.sampled_from(["-70", "-200", "0", "-0", "-55.25", " -3 ", "5e-324", "-200.0001", "x", "", "nan",
                            "inf", "1e400", "\u0663", "1_0", "-250"])


@st.composite
def mutated_csvs(draw):
    """(labelled, text): a small CSV over THREE_BEACONS whose rows may carry bad readings, bad labels, a dropped
    or an extra column, a blank line before them or a stray quote."""
    labelled = draw(st.booleans())
    lines = [("location,date" if labelled else "date") + ",p,q,r"]
    for _ in range(draw(st.integers(0, 4))):
        fields = [draw(st.sampled_from(["A01", "y24", "Z01", "A", "A25"]))] if labelled else []
        fields += [draw(st.sampled_from(["t", "2024-01-01 10:00", ""])), *draw(st.lists(READINGS, min_size=3,
                                                                                            max_size=3))]
        mutation = draw(st.sampled_from([None, None, "drop", "extra", "blank", "quote"]))
        if mutation == "drop":
            del fields[draw(st.integers(0, len(fields) - 1))]
        elif mutation == "extra":
            fields.append("-70")
        elif mutation == "blank":
            lines.append("")
        elif mutation == "quote":
            k = draw(st.integers(0, len(fields) - 1))
            fields[k] = '"' + fields[k]
        lines.append(",".join(fields))
    return labelled, "\n".join(lines) + draw(st.sampled_from(["\n", "", "\r\n"]))


class TestParserMatchesPerRowReference:
    """The flat-buffer parser gives the per-row parser's table, or its error: the first in file order."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(mutated_csvs())
    @example((False, "date,p,q,r\nt,-70,-70,-70\nt,-250,-70,-70\nt,-70,-70\n"))  # range, then a short row
    @example((True, "location,date,p,q,r\nA01,t,-70,-70,-70\nA01,t,-70,-70,1\nZ01,t,-70,-70,-70\n"))  # range, label
    @example((True, "location,date,p,q,r\nA01,t,-70,-70,-70\nZ01,t,-70,-70,-70\nA01,t,x,-70,-70\n"))  # label, value
    @example((False, "date,p,q,r\nt,-70,-250,x\n"))  # a range error before a non-numeric field in one row
    @example((False, "date,p,q,r\nt,x,-250,-70\n"))  # and after one
    @example((False, "date,p,q,r\nt,-70,nan,-70\n"))
    @example((False, 'date,p,q,r\nt,-250,-70,-70\nt,"-70,-70,-70\n'))  # range, then a record the csv module refuses
    def test_same_table_or_same_error(self, case):
        labelled, text = case
        assert _outcome(_parse, text, THREE_BEACONS, labelled) == \
            _outcome(_reference_parse, text, THREE_BEACONS, labelled)


def _reference_fmt(v: float) -> str:
    """The per-value formatter the block writer replaced."""
    return repr(v) if v != int(v) else str(int(v))


class TestWriterMatchesPerValueFormatter:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.booleans(), st.sampled_from([0, 1, 255, 256, 257, 600]),
           st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=20))
    @example(False, 2, [-0.0, 0.0, -200.0, -70.0, 5e-324, -5e-324, -55.25, 1e300, -1e22, 0.1, 2.0 ** 53 + 2])
    def test_bytes(self, tmp_path_factory, labelled, n_rows, values):
        rssi = np.resize(np.array(values), (n_rows, 3))
        cells = [(k % 25, k // 25 % 25) for k in range(n_rows)]
        stamps = [f"s{k}" for k in range(n_rows)]
        path = tmp_path_factory.mktemp("writer") / "table.csv"
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        if labelled:
            data.write_labelled_csv(labelled_table(cells, rssi, stamps), THREE_BEACONS, path)
            writer.writerow(["location", "date", "p", "q", "r"])
            writer.writerows([data.encode_location_label(c), s, *map(_reference_fmt, row)]
                             for c, s, row in zip(cells, stamps, rssi.tolist()))
        else:
            data.write_unlabelled_csv(data.Fingerprints(rssi, stamps), THREE_BEACONS, path)
            writer.writerow(["date", "p", "q", "r"])
            writer.writerows([s, *map(_reference_fmt, row)] for s, row in zip(stamps, rssi.tolist()))
        assert path.read_bytes() == expected.getvalue().encode("utf-8")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("labelled", [True, False], ids=["labelled", "unlabelled"])
    def test_a_non_finite_reading_is_refused_before_the_file_is_opened(self, tmp_path, labelled, value):
        rssi = np.full((3, 3), -70.0)
        rssi[1, 2] = value
        path = tmp_path / "table.csv"
        with pytest.raises(NumericalError, match=re.escape(f"cannot write {path}: an RSSI reading is {value!r}")):
            if labelled:
                data.write_labelled_csv(labelled_table([(0, 0)] * 3, rssi), THREE_BEACONS, path)
            else:
                data.write_unlabelled_csv(data.Fingerprints(rssi, ["t"] * 3), THREE_BEACONS, path)
        assert not path.exists()

    def test_a_cell_off_the_grid_is_refused_before_the_file_is_opened(self, tmp_path):
        one_beacon = data.BeaconLayout(ids=("p",), xs=(0.0,), ys=(0.0,))
        cells = [(k % 25, k // 25) for k in range(299)] + [(30, 0)]
        path = tmp_path / "labelled.csv"
        with pytest.raises(MalformedLabelError, match=re.escape("cell (30, 0) outside grid")):
            data.write_labelled_csv(labelled_table(cells, np.full((300, 1), -70.0)), one_beacon, path)
        assert not path.exists()


def _traced_peak(call) -> int:
    """The peak of memory traced while ``call()`` runs, in bytes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _as_read_by_the_cli(raw: bytes) -> io.TextIOWrapper:
    return io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", newline="")


class TestCodecMemory:
    """No Python object per reading lives across the whole table while it is read or written."""

    @pytest.fixture(scope="class")
    def paper_unlabelled(self, layout):
        return data.synth_generate(layout, data.PathLossModel(), 284, 5, seed=0, n_unlabelled=5191).unlabelled

    def test_parsing_the_paper_scale_unlabelled_csv(self, layout, paper_unlabelled, tmp_path):
        path = tmp_path / "unlabelled.csv"
        data.write_unlabelled_csv(paper_unlabelled, layout, path)
        raw = path.read_bytes()
        table_bytes = paper_unlabelled.rssi.nbytes + paper_unlabelled.timestamps.nbytes
        # a list of Python floats per row peaked at 4.8 times the table
        assert _traced_peak(lambda: data.parse_unlabelled_csv(_as_read_by_the_cli(raw), layout)) < 2.5 * table_bytes

    def test_writing_the_paper_scale_unlabelled_csv(self, layout, paper_unlabelled, tmp_path):
        table_bytes = paper_unlabelled.rssi.nbytes + paper_unlabelled.timestamps.nbytes
        # the whole table as nested Python lists peaked at 3.8 times the table
        peak = _traced_peak(lambda: data.write_unlabelled_csv(paper_unlabelled, layout, tmp_path / "u.csv"))
        assert peak < 2 * table_bytes

    def test_a_long_stamp_costs_its_own_length(self, layout):
        # fixed-width text would give each of the 2000 rows the 20 000-character width: 160 MB
        rows = [f"t{k}," + ",".join(["-70"] * 13) for k in range(2000)]
        rows[7] = "x" * 20_000 + rows[7][rows[7].index(","):]
        raw = ("date," + ",".join(layout.ids) + "\n" + "\n".join(rows) + "\n").encode()
        assert len(raw) < 140_000
        assert _traced_peak(lambda: data.parse_unlabelled_csv(_as_read_by_the_cli(raw), layout)) < 4_000_000
