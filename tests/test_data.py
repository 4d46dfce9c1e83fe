import io
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fingerloc import data
from conftest import labelled_table
from fingerloc.errors import LayoutError, MalformedLabelError, RowError, SchemaError


class TestLocationCodec:
    def test_a01(self):
        assert data.decode_location_label("A01") == data.GridPoint(0.0, 1.0)

    def test_o02(self):
        assert data.decode_location_label("O02") == data.GridPoint(14.0, 2.0)

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
        point = data.GridPoint(float(col), float(row))
        assert data.decode_location_label(data.encode_location_label(point)) == point

    @given(st.sampled_from("ABCDEFGHIJKLMNOPQRSTUVWXY"), st.integers(0, 24))
    def test_canonical_label_round_trip(self, letter, row):
        label = f"{letter}{row:02d}"
        assert data.encode_location_label(data.decode_location_label(label)) == label


def _labelled_csv(layout, rows):
    header = "location,date," + ",".join(layout.ids)
    return "\n".join([header, *rows]) + "\n"


class TestParsing:
    def test_labelled_counts(self, layout):
        rows = [f"A0{i},2024-01-0{i+1}," + ",".join(["-70"] * 13) for i in range(3)]
        table = data.parse_labelled_csv(_labelled_csv(layout, rows), layout)
        assert len(table) == 3
        assert table.labels[0] == "A00"
        assert table.rssi[0].tolist() == [-70.0] * 13

    def test_all_no_signal_row_accepted(self, layout):
        rows = ["B02,ts," + ",".join(["-200"] * 13)]
        table = data.parse_labelled_csv(_labelled_csv(layout, rows), layout)
        assert table.rssi[0].tolist() == [data.NO_SIGNAL] * 13

    def test_rssi_out_of_range(self, layout):
        rows = ["A00,ts," + ",".join(["-70"] * 12 + ["-201"])]
        with pytest.raises(RowError) as e:
            data.parse_labelled_csv(_labelled_csv(layout, rows), layout)
        assert e.value.line == 2

    def test_positive_rssi_rejected(self, layout):
        rows = ["A00,ts," + ",".join(["-70"] * 12 + ["5"])]
        with pytest.raises(RowError):
            data.parse_labelled_csv(_labelled_csv(layout, rows), layout)

    def test_extra_column_rejected(self, layout):
        header = "location,date,extra," + ",".join(layout.ids)
        with pytest.raises(SchemaError):
            data.parse_labelled_csv(header + "\n", layout)

    def test_wrong_column_count_in_row(self, layout):
        rows = ["A00,ts,-70"]
        with pytest.raises(RowError):
            data.parse_labelled_csv(_labelled_csv(layout, rows), layout)

    def test_unlabelled(self, layout):
        header = "date," + ",".join(layout.ids)
        body = header + "\nts1," + ",".join(["-60"] * 13) + "\n"
        table = data.parse_unlabelled_csv(body, layout)
        assert len(table) == 1
        assert table.timestamps[0] == "ts1"

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


class TestHistogram:
    def test_empty(self, synth_dataset):
        assert data.sample_histogram(synth_dataset.labelled.take([])).sum() == 0

    def test_single_sample(self):
        grid = data.sample_histogram(labelled_table([(3, 7)], [[-70.0] * 13]))
        assert grid[3, 7] == 1
        assert grid.sum() == 1

    def test_total_equals_count(self, synth_dataset):
        grid = data.sample_histogram(synth_dataset.labelled)
        assert grid.sum() == len(synth_dataset.labelled)


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
        rng = np.random.Generator(np.random.PCG64(0))
        rssi = data.synth_rssi(layout, model, layout.xs[0] + 1.0, layout.ys[0], rng)
        assert rssi[0] == pytest.approx(-45.0)

    def test_clamped_to_no_signal(self, layout):
        model = data.PathLossModel(reference_power=-190.0, exponent=6.0, noise_std=0.0,
                                   detection_floor=data.NO_SIGNAL)
        rng = np.random.Generator(np.random.PCG64(0))
        rssi = data.synth_rssi(layout, model, 0.0, 24.0, rng)
        assert min(rssi) == data.NO_SIGNAL

    def test_receiver_on_beacon_distance_floored(self, layout):
        model = data.PathLossModel(noise_std=0.0, detection_floor=data.NO_SIGNAL)
        rng = np.random.Generator(np.random.PCG64(0))
        rssi = data.synth_rssi(layout, model, layout.xs[0], layout.ys[0], rng)
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

    def test_labels_decode_to_locations(self, synth_dataset):
        t = synth_dataset.labelled
        for label, (x, y) in zip(t.labels.tolist(), t.cells.tolist()):
            assert data.decode_location_label(label) == data.GridPoint(float(x), float(y))


class TestLayout:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(LayoutError):
            data.BeaconLayout(ids=("a", "a"), xs=(1.0, 2.0), ys=(1.0, 2.0))

    def test_out_of_grid_rejected(self):
        with pytest.raises(LayoutError):
            data.BeaconLayout(ids=("a",), xs=(25.0,), ys=(1.0,))

    def test_default_layout_has_13_beacons(self, layout):
        assert layout.n_beacons == 13
        assert layout.cell_feet == 10.0

    def test_round_trip(self, layout, tmp_path):
        path = tmp_path / "layout.json"
        data.save_layout(layout, path)
        assert data.load_layout(path) == layout


class TestCsvRoundTrip:
    def test_labelled_round_trip(self, synth_dataset, tmp_path):
        path = tmp_path / "labelled.csv"
        data.write_labelled_csv(synth_dataset.labelled, synth_dataset.layout, path)
        with open(path) as f:
            parsed = data.parse_labelled_csv(f.read(), synth_dataset.layout)
        assert parsed == synth_dataset.labelled

    def test_unlabelled_round_trip(self, synth_dataset, tmp_path):
        path = tmp_path / "unlabelled.csv"
        data.write_unlabelled_csv(synth_dataset.unlabelled, synth_dataset.layout, path)
        with open(path) as f:
            parsed = data.parse_unlabelled_csv(f.read(), synth_dataset.layout)
        assert parsed == synth_dataset.unlabelled

    # exact: a float written as repr(np.float64(...)) would not parse back
    rssi_rows = st.lists(st.lists(st.floats(data.NO_SIGNAL, 0.0), min_size=13, max_size=13), max_size=12)
    stamps = st.text(alphabet="abcXYZ0123456789-:.", max_size=10)

    @given(st.data())
    def test_labelled_round_trip_property(self, layout, tmp_path_factory, gen):
        rssi = gen.draw(self.rssi_rows)
        n = len(rssi)
        cells = gen.draw(st.lists(st.tuples(st.integers(0, 24), st.integers(0, 24)), min_size=n, max_size=n))
        stamps = gen.draw(st.lists(self.stamps, min_size=n, max_size=n))
        table = labelled_table(cells, np.array(rssi).reshape(n, 13), stamps)
        path = tmp_path_factory.mktemp("csv") / "labelled.csv"
        data.write_labelled_csv(table, layout, path)
        assert data.parse_labelled_csv(path.read_text(), layout) == table

    @given(rssi_rows, st.data())
    def test_unlabelled_round_trip_property(self, layout, tmp_path_factory, rssi, gen):
        stamps = gen.draw(st.lists(self.stamps, min_size=len(rssi), max_size=len(rssi)))
        table = data.Fingerprints(np.array(rssi).reshape(len(rssi), 13), stamps, None, None)
        path = tmp_path_factory.mktemp("csv") / "unlabelled.csv"
        data.write_unlabelled_csv(table, layout, path)
        assert data.parse_unlabelled_csv(path.read_text(), layout) == table
