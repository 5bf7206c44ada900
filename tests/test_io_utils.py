import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gkpkit.bloch import Atlas
from gkpkit.io_utils import (
    ARTIFACT_VERSION,
    load_sweep,
    metadata_block,
    read_csv,
    write_csv,
    write_json,
    write_sweep,
)
from gkpkit.sweep import CutoffResult, SweepRecord


def test_metadata_block_contents():
    meta = metadata_block({"seed": 3, "delta": 0.35})
    assert meta["artifact_version"] == ARTIFACT_VERSION
    assert list(meta)[:2] == ["delta", "seed"]
    assert "timestamp" in meta


def test_csv_roundtrip(tmp_path):
    path = tmp_path / "table.csv"
    write_csv(path, ("a", "b"), [(1, "x,y"), (2, "z")], {"seed": 9})
    meta, header, rows = read_csv(path)
    assert meta["seed"] == "9"
    assert header == ["a", "b"]
    assert rows == [["1", "x,y"], ["2", "z"]]


def test_json_metadata_key(tmp_path):
    path = tmp_path / "doc.json"
    write_json(path, {"value": 1.5}, {"seed": 9})
    with open(path) as fh:
        doc = json.load(fh)
    assert doc["value"] == 1.5
    assert doc["metadata"]["seed"] == 9
    assert doc["metadata"]["artifact_version"] == ARTIFACT_VERSION


def test_json_writes_numpy_values_as_python_values(tmp_path):
    matrix = np.array([[0.1, -0.0], [5e-324, 1e308]])
    numpy_values = {"m": matrix, "f": np.float64(0.1), "i": np.int64(-7),
                    "b": np.bool_(True), "t": (np.int64(1), np.float64(2.5))}
    python_values = {"m": [[0.1, -0.0], [5e-324, 1e308]], "f": 0.1, "i": -7,
                     "b": True, "t": [1, 2.5]}
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    write_json(a, numpy_values, {"seed": 0})
    write_json(b, python_values, {"seed": 0})

    def stripped(path):
        return [ln for ln in path.read_text().splitlines() if "timestamp" not in ln]

    assert stripped(a) == stripped(b)


def test_sweep_write_holds_one_matrix_as_lists(tmp_path):
    # the desk sweep's size: 54 points, 24 cutoffs; the lists of every matrix
    # at once take about 2.4 MB
    rng = np.random.default_rng(0)
    atlas = Atlas(rng.standard_normal((54, 3)), [""] * 54, 0.35, 0)
    cutoffs = list(range(5, 121, 5))
    record = SweepRecord(atlas, cutoffs, infidelity=rng.random((54, 54)))
    for n in cutoffs:
        record.results[n] = CutoffResult(rng.random((54, 54)), rng.random(54), 1.0)
    tracemalloc.start()
    try:
        write_sweep(tmp_path / "sweep.json", record, {"seed": 0})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 0.5e6


def test_csv_identical_modulo_timestamp(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(a, ("n",), [(1,), (2,)], {"seed": 0})
    write_csv(b, ("n",), [(1,), (2,)], {"seed": 0})

    def stripped(path):
        with open(path) as fh:
            return [ln for ln in fh if not ln.startswith("# timestamp")]

    assert stripped(a) == stripped(b)


def test_failed_write_leaves_old_file_and_no_tmp(tmp_path):
    path = tmp_path / "table.csv"
    write_csv(path, ("a",), [(1,)], {"seed": 0})
    before = path.read_text()

    def rows():
        yield (2,)
        raise RuntimeError("row 2 failed")

    with pytest.raises(RuntimeError):
        write_csv(path, ("a",), rows(), {"seed": 0})
    with pytest.raises(TypeError):
        write_json(tmp_path / "doc.json", {"value": object()}, {"seed": 0})
    assert path.read_text() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["table.csv"]


def test_csv_float_array_rows_match_formatted_rows(tmp_path):
    special = [[0.1, -0.0, 1e-300], [np.pi, 2.0, -7.5e12]]
    values = np.vstack((special, np.random.default_rng(0).standard_normal((2500, 3))))
    write_csv(tmp_path / "a.csv", ("x", "y", "z"), values, {"seed": 0})
    _, header, rows = read_csv(tmp_path / "a.csv")
    assert rows == [[repr(float(v)) for v in row] for row in values]


# values whose repr tells apart what == does not (-0.0 and 0.0), the
# subnormal range, the infinities and short and long reprs
_EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-300,
                0.1, 1.0, 2.0, -7.5e12, np.inf, -np.inf)


@given(arrays(
    np.float64,
    st.tuples(st.integers(1, 40), st.integers(1, 4)),
    elements=st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(allow_nan=False)),
))
@example(np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, -0.0], [5e-324, -np.inf]]))
def test_csv_float_array_cells_are_reprs_of_each_value(tmp_path_factory, values):
    path = tmp_path_factory.mktemp("csv") / "a.csv"
    write_csv(path, [f"c{j}" for j in range(values.shape[1])], values, {"seed": 0})
    _, _, rows = read_csv(path)
    assert rows == [[repr(float(v)) for v in row] for row in values]


def test_sweep_roundtrip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(4)
    special = [-0.0, 5e-324, 1e308, 0.1]
    atlas = Atlas(rng.standard_normal((4, 3)), ["0L", "", "", "T+++"], 0.5, 3)
    record = SweepRecord(atlas, [10, 20], infidelity=rng.random((4, 4)))
    gaps = {10: 5e-324, 20: 0.0625}
    for n in (10, 20):
        record.results[n] = CutoffResult(
            np.vstack((special, rng.standard_normal((3, 4)))),
            rng.standard_normal(4) * 1e-12,
            gaps[n],
        )
    path, again = tmp_path / "sweep.json", tmp_path / "again.json"
    write_sweep(path, record, {"seed": 3})
    back = load_sweep(path)
    arrays = [(back.atlas.points, atlas.points), (back.infidelity, record.infidelity)]
    for n in (10, 20):
        got, want = back.results[n], record.results[n]
        arrays.append((got.expectation, want.expectation))
        arrays.append((got.ground_energies, want.ground_energies))
    for got, want in arrays:
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert (back.atlas.labels, back.atlas.delta, back.atlas.seed) == (
        atlas.labels, 0.5, 3)
    assert back.cutoffs == [10, 20]
    assert {n: r.parity_gap for n, r in back.results.items()} == {
        10: 5e-324, 20: 0.0625}
    # a per-cutoff block holds exactly the fields of CutoffResult
    for block in json.loads(path.read_text())["per_cutoff"].values():
        assert set(block) == set(CutoffResult._fields)
    write_sweep(again, back, {"seed": 3})

    def stripped(path):
        return [ln for ln in path.read_text().splitlines() if "timestamp" not in ln]

    assert stripped(again) == stripped(path)
