import ctypes
import dataclasses
import glob
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from gkpkit import cli, io_utils, sweep
from gkpkit.analysis import ExtrapolationResult
from gkpkit.bloch import core_states
from gkpkit.cli import load_sweep, main, parse_bloch, parse_cutoffs, parse_grid
from gkpkit.errors import InvalidArgumentError
from gkpkit.gaussian import gaussian_expectation
from gkpkit.io_utils import read_csv


def _strip_timestamps(path):
    with open(path) as fh:
        text = fh.read()
    text = re.sub(r"# timestamp: .*\n", "", text)
    text = re.sub(r'"timestamp": "[^"]*"', '"timestamp": ""', text)
    return text


def test_parse_bloch_aliases():
    np.testing.assert_allclose(parse_bloch("0"), (0, 0, 1))
    np.testing.assert_allclose(
        parse_bloch("H"), (1 / math.sqrt(2), 1 / math.sqrt(2), 0)
    )
    np.testing.assert_allclose(parse_bloch("T+++"), np.ones(3) / math.sqrt(3))
    np.testing.assert_allclose(parse_bloch("3,0,4"), (0.6, 0, 0.8))
    with pytest.raises(InvalidArgumentError):
        parse_bloch("bogus")
    for text in ("0,0,0", "nan,0,1", "inf,0,0"):
        with pytest.raises(InvalidArgumentError):
            parse_bloch(text)
    # finite nonzero triples whose plain norm under- or overflows
    diagonal = (1 / math.sqrt(2), 1 / math.sqrt(2), 0)
    np.testing.assert_allclose(parse_bloch("1e-200,1e-200,0"), diagonal)
    np.testing.assert_allclose(parse_bloch("1e200,1e200,0"), diagonal)
    assert np.array_equal(parse_bloch("1e-320,0,0"), (1, 0, 0))
    cores = dict(core_states())
    aliases = {"0": "0L", "1": "1L", "+": "+L", "-": "-L", "i": "iL", "-i": "-iL",
               "H": "H+x+y", "T": "T+++"}
    for alias, label in aliases.items():
        assert np.array_equal(parse_bloch(alias), cores[label])


def test_parse_cutoffs():
    assert parse_cutoffs("5:20:5") == [5, 10, 15, 20]
    assert parse_cutoffs("7,9,11") == [7, 9, 11]
    with pytest.raises(InvalidArgumentError):
        parse_cutoffs("20:5:5")


def test_parse_grid():
    grid = parse_grid("-2:2:5")
    np.testing.assert_allclose(grid, [-2, -1, 0, 1, 2])
    with pytest.raises(InvalidArgumentError):
        parse_grid("2:-2:5")


def test_atlas_command(tmp_path):
    out = tmp_path / "a"
    assert main(["atlas", "--delta", "0.6", "--seed", "1", "--out", str(out)]) == 0
    meta, header, rows = read_csv(out / "atlas.csv")
    assert header == ["index", "label", "ux", "uy", "uz"]
    assert len(rows) >= 26
    assert meta["delta"] == "0.6"
    points = np.array([[float(r[2]), float(r[3]), float(r[4])] for r in rows])
    np.testing.assert_allclose(np.linalg.norm(points, axis=1), 1.0, atol=1e-9)
    assert points[0, 2] == points[:, 2].min()


def test_atlas_determinism(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["atlas", "--delta", "0.7", "--seed", "3", "--out", str(a)])
    main(["atlas", "--delta", "0.7", "--seed", "3", "--out", str(b)])
    assert _strip_timestamps(a / "atlas.csv") == _strip_timestamps(b / "atlas.csv")
    assert _strip_timestamps(a / "atlas.json") == _strip_timestamps(b / "atlas.json")


def test_groundstate_energies_ordered(tmp_path):
    energies = {}
    for cutoff in (5, 50):
        out = tmp_path / f"n{cutoff}"
        code = main(
            ["groundstate", "--u", "H", "--cutoff", str(cutoff), "--out", str(out)]
        )
        assert code == 0
        with open(out / "groundstate.json") as fh:
            energies[cutoff] = json.load(fh)["ground_energy"]
    assert energies[50] < energies[5]


def test_groundstate_wigner_output(tmp_path):
    out = tmp_path / "w"
    code = main(
        [
            "groundstate", "--u", "0", "--cutoff", "20", "--out", str(out),
            "--wigner", "--grid=-4:4:17",
        ]
    )
    assert code == 0
    _, header, rows = read_csv(out / "wigner.csv")
    assert header == ["x", "p", "W"]
    assert len(rows) == 17 * 17
    assert max(abs(float(r[2])) for r in rows) <= 1 / math.pi + 1e-9


def test_groundstate_default_wigner_grid_keeps_mass(tmp_path):
    out = tmp_path / "w"
    code = main(
        ["groundstate", "--u", "H", "--cutoff", "150", "--out", str(out), "--wigner"]
    )
    assert code == 0
    with open(out / "groundstate.json") as fh:
        doc = json.load(fh)
    assert abs(doc["wigner_mass"] - 1.0) < 1e-4
    _, _, rows = read_csv(out / "wigner.csv")
    xs = sorted({float(r[0]) for r in rows})
    assert len(rows) == len(xs) ** 2
    assert max(np.diff(xs)) <= 0.1 + 1e-12
    plain = tmp_path / "plain"
    assert main(["groundstate", "--u", "H", "--cutoff", "20", "--out", str(plain)]) == 0
    with open(plain / "groundstate.json") as fh:
        assert "wigner_mass" not in json.load(fh)


def test_sweep_analyze_roundtrip(tmp_path):
    sw = tmp_path / "sw"
    an = tmp_path / "an"
    code = main(
        [
            "sweep", "--delta", "1.2", "--cutoffs", "10,20,30", "--seed", "2",
            "--out", str(sw),
        ]
    )
    assert code == 0
    with open(sw / "sweep.json") as fh:
        doc = json.load(fh)
    assert doc["schema_version"] == 1
    assert sorted(int(k) for k in doc["per_cutoff"]) == [10, 20, 30]
    gaps = {int(k): block["parity_gap"] for k, block in doc["per_cutoff"].items()}
    assert all(gap > 0 for gap in gaps.values())
    record = load_sweep(str(sw / "sweep.json"))
    assert {n: r.parity_gap for n, r in record.results.items()} == gaps
    code = main(["analyze", "--sweep", str(sw / "sweep.json"), "--out", str(an)])
    assert code == 0
    _, header, rows = read_csv(an / "regression.csv")
    assert [r[0] for r in rows] == ["10", "20", "30"]
    slopes = [float(r[1]) for r in rows]
    assert slopes == sorted(slopes)
    with open(an / "extrapolation.json") as fh:
        assert "skipped" in json.load(fh)  # 3 cutoffs cannot support the fit
    with open(an / "diagnostics.json") as fh:
        diag = json.load(fh)
    assert set(diag["identity_deviation"]) == {"10", "20", "30"}
    assert sorted(os.listdir(an)) == sorted(
        ["regression.csv", "extrapolation.json", "diagnostics.json", "infidelity.csv"]
        + [f"expectation_N{n}.csv" for n in (10, 20, 30)]
    )


def test_sweep_resume_skips_done_cutoffs(tmp_path, monkeypatch):
    sw, fresh = tmp_path / "sw", tmp_path / "fresh"
    base = ["sweep", "--delta", "1.2", "--seed", "0"]
    assert main(base + ["--cutoffs", "10,20", "--out", str(sw)]) == 0
    asked = []
    ground_states = sweep.ground_states

    def spy(points, cutoff):
        asked.append(cutoff)
        return ground_states(points, cutoff)

    monkeypatch.setattr(sweep, "ground_states", spy)
    assert main(base + ["--cutoffs", "10,20,30", "--resume", "--out", str(sw)]) == 0
    monkeypatch.undo()
    assert asked == [30]
    assert main(base + ["--cutoffs", "10,20,30", "--out", str(fresh)]) == 0
    assert _strip_timestamps(sw / "sweep.json") == _strip_timestamps(fresh / "sweep.json")
    # every cutoff listed is checked, also those the file already holds
    text = (sw / "sweep.json").read_text()
    for cutoffs in ("20,10,10", "20,10"):
        assert main(base + ["--cutoffs", cutoffs, "--resume", "--out", str(sw)]) == 2
        assert (sw / "sweep.json").read_text() == text
    assert cli.load_sweep is io_utils.load_sweep


@pytest.mark.parametrize("edit", ["reverse", "relabel"])
def test_sweep_resume_recomputes_for_another_atlas(tmp_path, capsys, edit):
    # a self-consistent file for another atlas of the same delta and seed, as
    # an older sampler would write: reversed order, or other core labels
    sw, fresh = tmp_path / "sw", tmp_path / "fresh"
    base = ["sweep", "--delta", "1.2", "--seed", "0"]
    assert main(base + ["--cutoffs", "10,20", "--out", str(sw)]) == 0
    path = sw / "sweep.json"
    doc = json.loads(path.read_text())
    if edit == "reverse":
        doc["atlas"]["points"].reverse()
        doc["atlas"]["labels"].reverse()
        doc["infidelity"] = [row[::-1] for row in doc["infidelity"][::-1]]
        for block in doc["per_cutoff"].values():
            block["expectation"] = [row[::-1] for row in block["expectation"][::-1]]
            block["ground_energies"].reverse()
    else:
        doc["atlas"]["labels"] = [""] * len(doc["atlas"]["labels"])
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(base + ["--cutoffs", "10,20,30", "--resume", "--out", str(sw)]) == 0
    assert "config mismatch" in capsys.readouterr().err
    assert main(base + ["--cutoffs", "10,20,30", "--out", str(fresh)]) == 0
    assert _strip_timestamps(path) == _strip_timestamps(fresh / "sweep.json")


def test_analyze_rejects_unknown_schema(tmp_path, capsys):
    bad = tmp_path / "sweep.json"
    bad.write_text(json.dumps({"schema_version": 99}))
    code = main(["analyze", "--sweep", str(bad), "--out", str(tmp_path / "an")])
    assert code == 2
    assert "schema" in capsys.readouterr().err


def test_analyze_rejects_corrupt_file(tmp_path):
    bad = tmp_path / "sweep.json"
    bad.write_text("{not json")
    assert main(["analyze", "--sweep", str(bad), "--out", str(tmp_path / "an")]) == 2


@pytest.fixture(scope="module")
def valid_sweep_text(tmp_path_factory):
    out = tmp_path_factory.mktemp("valid")
    args = ["sweep", "--delta", "1.2", "--cutoffs", "10,20,30,40,50", "--out", str(out)]
    assert main(args) == 0
    return (out / "sweep.json").read_text()


@pytest.mark.parametrize(
    "text",
    [
        '{"schema_version": 1, "per_cut',
        "[1, 2]",
        '{"schema_version": 1}',
        '{"schema_version": 1, "delta": 0.35, "seed": 0, "cutoffs": [10], '
        '"atlas": {}, "infidelity": [], "per_cutoff": []}',
        '{"schema_version": 1, "delta": 0.35, "seed": 0, "cutoffs": [10], '
        '"atlas": {}, "infidelity": [], "per_cutoff": {}}',
        '{"schema_version": 1, "delta": 0.35, "seed": 0, "cutoffs": [5], '
        '"atlas": {"points": [], "labels": [], "delta": 0.35, "seed": 0}, '
        '"infidelity": [], "per_cutoff": {"5": {}}}',
        '{"schema_version": 1, "delta": 0.35, "seed": 0, "cutoffs": 5, '
        '"atlas": {"points": [], "labels": [], "delta": 0.35, "seed": 0}, '
        '"infidelity": [], "per_cutoff": {}}',
        # changes to a valid file
        lambda doc: doc["per_cutoff"].pop("50"),
        lambda doc: doc["per_cutoff"]["10"].update(expectation=[[0.5]]),
        lambda doc: doc["per_cutoff"]["10"].update(expectation="abc"),
        lambda doc: doc.update(cutoffs=[10, 10, 20, 30, 40]),
        # json.dumps writes these as the bare words NaN and Infinity
        lambda doc: doc["per_cutoff"]["10"]["expectation"][0].__setitem__(1, math.nan),
        lambda doc: doc["per_cutoff"]["10"].update(parity_gap=math.inf),
        lambda doc: doc["per_cutoff"]["10"].pop("parity_gap"),
        # values np.array or float() would take for numbers; labels that do not
        # fit the points
        lambda doc: doc["per_cutoff"]["10"]["expectation"][0].__setitem__(1, "nan"),
        lambda doc: doc["per_cutoff"]["10"]["expectation"][0].__setitem__(1, "1e999"),
        lambda doc: doc["per_cutoff"]["10"].update(parity_gap="1e999"),
        lambda doc: doc["per_cutoff"]["10"].update(parity_gap="inf"),
        lambda doc: doc["per_cutoff"]["10"].update(parity_gap="0.5"),
        lambda doc: doc["per_cutoff"]["10"].update(parity_gap=True),
        lambda doc: doc["atlas"]["labels"].pop(),
        lambda doc: doc["atlas"]["labels"].__setitem__(0, 0),
        # numpy reads true and false among numbers as 1.0 and 0.0
        lambda doc: doc["per_cutoff"]["10"]["expectation"][0].__setitem__(1, True),
        lambda doc: doc["per_cutoff"]["20"]["ground_energies"].__setitem__(2, False),
        lambda doc: doc["atlas"]["points"][3].__setitem__(0, True),
    ],
    ids=["truncated", "list", "missing_keys", "per_cutoff_list", "empty_atlas",
         "empty_cutoff_block", "cutoffs_not_a_list", "cutoff_without_block",
         "1x1_expectation", "string_expectation", "duplicate_cutoffs",
         "nan_expectation", "infinite_parity_gap", "missing_parity_gap",
         "quoted_nan_expectation", "overflowing_expectation",
         "overflowing_parity_gap", "quoted_inf_parity_gap", "quoted_parity_gap",
         "boolean_parity_gap", "short_labels", "number_label",
         "boolean_expectation", "boolean_ground_energy", "boolean_point"],
)
def test_bad_sweep_file_exits_2_on_resume_and_analyze(
    tmp_path, capsys, valid_sweep_text, text
):
    if callable(text):
        doc = json.loads(valid_sweep_text)
        text(doc)
        # "1e999" stands for the bare number, which json.dumps cannot write
        text = json.dumps(doc).replace('"1e999"', "1e999")
    bad = tmp_path / "sweep.json"
    bad.write_text(text)
    resume = ["sweep", "--cutoffs", "10", "--out", str(tmp_path), "--resume"]
    assert main(resume) == 2
    assert bad.read_text() == text
    assert main(["analyze", "--sweep", str(bad), "--out", str(tmp_path / "an")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    assert all(f"corrupt sweep file {bad}" in line for line in err)


def test_analyze_writes_failed_windows(tmp_path):
    sw = tmp_path / "sw"
    an = tmp_path / "an"
    args = ["sweep", "--delta", "1.2", "--cutoffs", "60:100:5", "--seed", "2"]
    assert main(args + ["--out", str(sw)]) == 0
    assert main(["analyze", "--sweep", str(sw / "sweep.json"), "--out", str(an)]) == 0
    with open(an / "extrapolation.json") as fh:
        doc = json.load(fh)
    fields = {f.name for f in dataclasses.fields(ExtrapolationResult)}
    assert set(doc) == fields | {"metadata"}
    # the window 80-100 is best fitted by the steepest rate allowed
    assert doc["failed_windows"] == [
        {"start": 80, "reason": "saturation rate 10 pinned at bound"}
    ]
    assert 1.9 <= doc["window_mean"] <= 2.1


def test_bound_command(tmp_path):
    out = tmp_path / "b"
    code = main(
        ["bound", "--u", "0", "--u", "H", "--budget", "120", "--out", str(out)]
    )
    assert code == 0
    _, header, rows = read_csv(out / "bound.csv")
    assert "gap" in header
    gaps = [float(r[header.index("gap")]) for r in rows]
    assert max(abs(g) for g in gaps) < 1e-3
    assert min(gaps) > -1e-9


def test_bound_columns_hold_the_argmin(tmp_path):
    # x0, p0, r, theta of each row are the point whose value is numeric_min
    out = tmp_path / "b"
    assert main(["bound", "--u", "core", "--budget", "108", "--out", str(out)]) == 0
    _, header, rows = read_csv(out / "bound.csv")
    for row in rows:
        field = dict(zip(header, row))
        u = [float(field[name]) for name in ("ux", "uy", "uz")]
        point = [float(field[name]) for name in ("x0", "p0", "r", "theta")]
        value = gaussian_expectation(point, u)
        assert abs(value - float(field["numeric_min"])) <= 1e-12


def test_measure_command(tmp_path):
    out = tmp_path / "m"
    code = main(
        [
            "measure", "--u", "0", "--cutoff", "60", "--counts", "20000",
            "--seed", "1", "--out", str(out),
        ]
    )
    assert code == 0
    with open(out / "measure.json") as fh:
        doc = json.load(fh)
    assert abs(doc["value"] - doc["exact_matrix_value"]) < 5 * doc["std_error"]
    assert len(doc["per_term"]) == 6


def test_invalid_bloch_exits_2(tmp_path, capsys):
    assert main(["groundstate", "--u", "junk", "--out", str(tmp_path)]) == 2
    out = tmp_path / "nan"
    args = ["groundstate", "--u", "nan,0,1", "--cutoff", "10", "--out", str(out)]
    assert main(args) == 2
    assert not out.exists()
    capsys.readouterr()


@pytest.mark.parametrize(
    "args",
    [
        ["atlas", "--seed=-1"],
        ["sweep", "--cutoffs", "10", "--seed=-1"],
        ["bound", "--u", "0", "--seed=-1"],
        ["measure", "--u", "0", "--cutoff", "10", "--seed=-1"],
        ["sweep", "--cutoffs", "5:x:5"],
        ["sweep", "--cutoffs", "10", "--delta", "5"],
        ["groundstate", "--u", "0", "--cutoff", "10", "--wigner", "--grid=a:1:5"],
        ["groundstate", "--u", "0", "--cutoff", "10", "--wigner", "--grid=-1:1:x"],
        ["measure", "--u", "0", "--cutoff", "10", "--counts", "1"],
        ["sweep", "--cutoffs", "30,10"],
        ["sweep", "--cutoffs", "10,10"],
        ["sweep", "--cutoffs", "0:10:5"],
        ["groundstate", "--u", "H", "--cutoff", "10", "--grid=a:b:c"],
        ["groundstate", "--u", "H", "--cutoff", "10", "--grid=-1:1:5"],
        ["measure", "--u", "0", "--cutoff", "10", "--counts", "0"],
    ],
)
def test_bad_argument_exits_2_and_writes_nothing(tmp_path, capsys, args):
    out = tmp_path / "out"
    assert main(args + ["--out", str(out)]) == 2
    assert not out.exists()
    capsys.readouterr()


@pytest.mark.parametrize("counts", ["0", "1"])
def test_measure_names_the_two_sample_minimum(tmp_path, capsys, counts):
    args = ["measure", "--u", "0", "--cutoff", "10", "--counts", counts]
    assert main(args + ["--out", str(tmp_path / "m")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: each quadrature needs at least 2 samples, got {counts}\n"


def test_unknown_flag_exits_2(capsys):
    assert main(["atlas", "--bogus", "1"]) == 2
    assert main(["sweep", "--workers", "2"]) == 2
    assert main(["bound", "--u", "0", "--rmax", "6"]) == 2
    assert main(["analyze", "--sweep", "x.json", "--ksg-k", "4"]) == 2
    capsys.readouterr()


def test_unwritable_path_exits_4(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    # output "directory" is an existing regular file
    assert main(["atlas", "--delta", "0.9", "--out", str(blocker)]) == 4
    capsys.readouterr()


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _bundled_openblas():
    """Path of numpy's bundled OpenBLAS; skips the test where there is none."""
    libs = glob.glob(os.path.dirname(np.__file__) + ".libs/libscipy_openblas*")
    if not libs:
        pytest.skip("numpy ships no bundled OpenBLAS")
    return libs[0]


@pytest.mark.parametrize(
    "args",
    [
        ["sweep", "--cutoffs", "85,100"],
        ["groundstate", "--u", "H", "--cutoff", "150", "--wigner", "--grid=-18:18:271"],
        ["bound", "--u", "0", "--u", "H", "--budget", "108"],
    ],
    ids=["sweep", "groundstate", "bound"],
)
def test_results_independent_of_blas_threads(tmp_path, args):
    # one and two OpenBLAS threads give different last bits in eigh and
    # in the Wigner products unless main runs on one thread; the bound
    # search calls eigh on stacks of 4 x 4 Hessians. A CLI process
    # loads OpenBLAS with one thread whatever OPENBLAS_NUM_THREADS says, so
    # each run loads numpy first, at the count asked for, as a library
    # caller does, and then calls main
    lib = _bundled_openblas()
    if sweep.usable_cores() < 2:
        pytest.skip("OpenBLAS caps its thread count at the usable cores")
    code = (
        "import ctypes, sys\n"
        "import numpy\n"
        f"get = ctypes.CDLL({lib!r}).scipy_openblas_get_num_threads64_\n"
        "assert get() == int(sys.argv[1]), get()\n"
        "from gkpkit.cli import main\n"
        "sys.exit(main(sys.argv[2:]))\n"
    )
    files = {}
    for threads in (1, 2):
        out = tmp_path / f"t{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), PYTHONPATH=SRC)
        subprocess.run(
            [sys.executable, "-c", code, str(threads), *args, "--out", str(out)],
            cwd=tmp_path, env=env, check=True, capture_output=True,
        )
        files[threads] = {
            path.name: _strip_timestamps(path) for path in sorted(out.iterdir())
        }
    assert files[1].keys() == files[2].keys() and files[1]
    for name in files[1]:
        assert files[1][name] == files[2][name], name


@pytest.mark.parametrize("inherited", [None, "4"], ids=["unset", "4"])
def test_cli_import_loads_openblas_with_one_thread(inherited):
    # a second BLAS thread would only spin idle, ~0.1 s of CPU per process
    lib = _bundled_openblas()
    code = (
        "import ctypes, json, os\n"
        "before = dict(os.environ)\n"
        "import gkpkit.cli\n"
        f"get = ctypes.CDLL({lib!r}).scipy_openblas_get_num_threads64_\n"
        "tasks = '/proc/self/task'\n"
        "tasks = len(os.listdir(tasks)) if os.path.isdir(tasks) else None\n"
        "print(json.dumps([get(), tasks, dict(os.environ) == before]))\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if inherited is not None:
        env["OPENBLAS_NUM_THREADS"] = inherited
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env, check=True, capture_output=True, text=True,
    )
    threads, tasks, environ_kept = json.loads(done.stdout)
    assert threads == 1
    assert tasks in (None, 1)
    assert environ_kept


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_cli_import_leaves_the_collector_as_found(enabled):
    # the collector is off while the CLI's imports load, and frozen after them
    code = (
        "import gc, json\n"
        f"{'gc.enable()' if enabled else 'gc.disable()'}\n"
        "import gkpkit.cli\n"
        "print(json.dumps([gc.isenabled(), gc.get_freeze_count()]))\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env, check=True, capture_output=True, text=True,
    )
    collecting, frozen = json.loads(done.stdout)
    assert collecting is enabled
    assert frozen > 0


def test_package_import_loads_no_submodule_and_no_numpy():
    code = (
        "import sys, gkpkit; "
        "print([m for m in sys.modules "
        "if m.startswith('gkpkit.') or m.split('.')[0] == 'numpy'])"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env, check=True, capture_output=True, text=True,
    )
    assert done.stdout.strip() == "[]"


def test_cli_import_loads_no_scipy_stats():
    code = "import sys, gkpkit.cli; print('scipy.stats' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env, check=True, capture_output=True, text=True,
    )
    assert done.stdout.strip() == "False"


def test_cli_import_loads_no_scipy():
    code = (
        "import gkpkit.cli, sys; "
        "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env, check=True, capture_output=True, text=True,
    )
    assert done.stdout.strip() == "[]"


def test_analyze_loads_no_scipy(tmp_path):
    sw = tmp_path / "sw"
    assert main(["sweep", "--delta", "1.2", "--cutoffs", "10,20", "--out", str(sw)]) == 0
    code = (
        "import sys; from gkpkit.cli import main; "
        f"code = main(['analyze', '--sweep', {str(sw / 'sweep.json')!r}, "
        f"'--out', {str(tmp_path / 'an')!r}]); "
        "print(code, [m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env, check=True, capture_output=True, text=True,
    )
    assert done.stdout.split("\n")[-2] == "0 []"


def test_main_pins_one_blas_thread_and_restores_the_count(tmp_path, monkeypatch):
    lib = ctypes.CDLL(_bundled_openblas())
    get = lib.scipy_openblas_get_num_threads64_
    put = lib.scipy_openblas_set_num_threads64_
    inside = []

    def probe(args):
        inside.append(get())
        return 0

    monkeypatch.setattr(cli, "cmd_atlas", probe)
    before = get()
    put(2)
    try:
        assert main(["atlas", "--out", str(tmp_path)]) == 0
        assert inside == [1]
        assert get() == 2
    finally:
        put(before)


def test_benchmark_hooks_find_every_name(tmp_path):
    # gkpbench wraps gkpkit functions by name; a renamed or moved function
    # silently drops its per-layer metrics from the benchmark result
    code = f"""
import json, sys
sys.path.insert(0, {os.path.join(ROOT, 'gkpbench')!r})
import hooks, layers
from gkpkit import cli
recorder = hooks.Recorder("guard")
absent = hooks.install(recorder)
codes = []
for args in (
    ["atlas", "--delta", "1.2", "--out", "a"],
    ["sweep", "--delta", "1.2", "--cutoffs", "10,20", "--out", "s"],
    ["analyze", "--sweep", "s/sweep.json", "--out", "an"],
    ["groundstate", "--u", "H", "--cutoff", "20", "--wigner", "--grid=-4:4:9",
     "--out", "g"],
    ["measure", "--u", "0", "--cutoff", "30", "--counts", "1000", "--out", "m"],
    ["bound", "--u", "0", "--budget", "108", "--out", "b"],
):
    with recorder.span("cli.main"):
        codes.append(cli.main(args))
values = layers.layer_metrics([{{"absent": absent, "spans": recorder.spans}}])
missing = [name for name in layers.LAYER_METRICS if name not in values]
print(json.dumps([absent, missing, codes]))
"""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", code],
        cwd=tmp_path, env=env, check=True, capture_output=True, text=True,
    )
    absent, missing, codes = json.loads(done.stdout.splitlines()[-1])
    assert absent == []
    assert missing == []
    assert codes == [0] * 6
