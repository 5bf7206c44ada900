import json

import numpy as np
import pytest

from gkpkit.io_utils import (
    ARTIFACT_VERSION,
    metadata_block,
    read_csv,
    write_csv,
    write_json,
)


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
