"""Self-test of the benchmark's own checks; needs only the standard library.

Run from the root of a checkout:

    python3 gkpbench/selftest.py

It shows that tampered result files count as failures, that the determinism
rule ignores the timestamp and nothing else, that missing hooks leave their
metrics out, that the span arithmetic gives the documented self and busy
times, and that the metrics computed are exactly those BENCHMARK.json lists,
with well-formed names and units.
"""

import contextlib
import io
import json
import math
import os
import re
import sys
import tempfile
import types
import unittest

import checks
import hooks
import layers
import run

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def write_csv(path, header, rows):
    """A result CSV in the layout io_utils.write_csv produces."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        fh.write("# artifact_version: 0.1.0\n# timestamp: 2026-01-01T00:00:00+00:00\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")


def write_json(path, payload):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    doc = {"metadata": {"timestamp": "2026-01-01T00:00:00+00:00"}, **payload}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)


class Gates(unittest.TestCase):
    def setUp(self):
        os.makedirs(run.WORK, exist_ok=True)
        self._tmp = tempfile.TemporaryDirectory(dir=run.WORK)
        self.out = self._tmp.name

    def tearDown(self):
        self._tmp.cleanup()

    def bound_csv(self, gaps):
        header = ("label", "ux", "uy", "uz", "analytic_bound", "numeric_min", "gap")
        rows = [(f"t{i}", 0.0, 0.0, 1.0, 2 / 3, 2 / 3 + g, g) for i, g in enumerate(gaps)]
        write_csv(os.path.join(self.out, "bound.csv"), header, rows)
        return checks.bound(self.out)

    def test_bound_gap(self):
        self.assertEqual(self.bound_csv([1e-5, 0.0, 5e-4, 1e-9]), [])
        self.assertTrue(self.bound_csv([1e-5, 2e-3, 0.0, 0.0]))
        self.assertTrue(self.bound_csv([1e-5, -1e-6, 0.0, 0.0]))
        self.assertTrue(self.bound_csv([1e-5, 0.0, 0.0]))

    def measure(self, shift):
        sigma = 0.002
        write_json(os.path.join(self.out, "measure.json"), {
            "value": 0.05 + shift * sigma, "std_error": sigma,
            "exact_matrix_value": 0.05, "gaussian_bound": 2 / 3,
        })
        return checks.measure(self.out)

    def test_measure_witness(self):
        self.assertEqual(self.measure(1.0), [])
        self.assertTrue(self.measure(10.0))
        self.assertTrue(self.measure(-10.0))

    def groundstate(self, energy, scale):
        write_json(os.path.join(self.out, "groundstate.json"), {"ground_energy": energy})
        axis = [-8 + 0.1 * i for i in range(161)]
        rows = [(repr(x), repr(p), repr(scale * math.exp(-x * x - p * p) / math.pi))
                for x in axis for p in axis]
        write_csv(os.path.join(self.out, "wigner.csv"), ("x", "p", "W"), rows)
        return checks.groundstate(self.out)

    def test_groundstate_energy_and_wigner(self):
        self.assertEqual(self.groundstate(1e-3, 1.0), [])
        self.assertEqual(len(self.groundstate(-1e-6, 1.0)), 1)
        self.assertEqual(len(self.groundstate(1e-3, 1.001)), 2)

    def analyze(self, mean, std):
        write_json(os.path.join(self.out, "extrapolation.json"),
                   {"window_mean": mean, "window_std": std})
        rows = [(n, 2.0) for n in checks.DESK_CUTOFFS]
        write_csv(os.path.join(self.out, "regression.csv"), ("N", "slope"), rows)
        return checks.analyze(self.out)

    def test_analyze_slope_two(self):
        self.assertEqual(self.analyze(2.0, 0.01), [])
        self.assertTrue(self.analyze(2.2, 0.01))
        self.assertTrue(self.analyze(2.0, 0.06))


class Determinism(unittest.TestCase):
    def test_only_the_timestamp_is_ignored(self):
        base = ('# seed: 0\n# timestamp: 2026-01-01T00:00:00\nx\n1.0\n',
                '{"metadata": {"seed": 0, "timestamp": "2026-01-01T00:00:00"}, "v": 1.0}\n')
        later = [t.replace("2026-01-01T00:00:00", "2026-02-02T11:11:11") for t in base]
        changed = [t.replace("1.0", "1.5") for t in base]
        changed += [t.replace("seed: 0", "seed: 1").replace('"seed": 0', '"seed": 1')
                    for t in base]
        for a, b in zip(base, later):
            self.assertEqual(checks.strip_timestamps(a), checks.strip_timestamps(b))
        for a, c in zip(base + base, changed):
            self.assertNotEqual(checks.strip_timestamps(a), checks.strip_timestamps(c))

    def test_mismatch_fails_the_command_that_wrote_it(self):
        steps = run.desk(0)
        reference = {"id": "pass0", "digests": {"atlas/atlas.csv": "a", "sweep/sweep.json": "s"}}
        again = {"id": "pass1", "digests": {"atlas/atlas.csv": "a", "sweep/sweep.json": "t"},
                 "steps": [{"failures": []} for _ in steps]}
        run.check_determinism(reference, again, steps)
        self.assertEqual([bool(r["failures"]) for r in again["steps"]], [False, True, False])


class Spans(unittest.TestCase):
    SPANS = [
        {"name": "cli.main", "start": 0.0, "end": 10.0, "parent": None},
        {"name": "a", "start": 1.0, "end": 4.0, "parent": 0},
        {"name": "b", "start": 2.0, "end": 3.0, "parent": 1},
        {"name": "a", "start": 5.0, "end": 6.0, "parent": 0, "failed": True},
        {"name": "b", "start": 5.5, "end": 5.75, "parent": 3},
    ]

    def test_self_and_busy_times(self):
        times = layers.span_times(self.SPANS)
        self.assertEqual([t[1] for t in times], [6.0, 2.0, 1.0, 0.75, 0.25])
        record = {"spans": self.SPANS, "setup_s": 1.0}
        self.assertAlmostEqual(layers.coverage(record, 0.5, 12.0), (1.0 + 4.0 + 0.5) / 12.0)
        by = {"a": [], "b": []}
        for span, t in zip(self.SPANS, times):
            by.get(span["name"], []).append((span, t))
        spans, ts = zip(*by["a"])
        self.assertEqual(layers._statistic("busy", spans, ts), 4.0)
        self.assertEqual(layers._statistic("self", spans, ts), 2.75)
        self.assertEqual(layers._statistic("failed", spans, ts), 1)

    def test_missing_hook_leaves_its_metrics_out(self):
        package = types.ModuleType("gkpkit")
        sweep = types.ModuleType("gkpkit.sweep")
        sweep.run_sweep = lambda: 42
        sweep.run_sweep.__module__ = "gkpkit.sweep"
        saved = {k: sys.modules.get(k) for k in ("gkpkit", "gkpkit.sweep")}
        sys.modules.update({"gkpkit": package, "gkpkit.sweep": sweep})
        try:
            recorder = hooks.Recorder("p0")
            absent = hooks.install(recorder)
            self.assertEqual(sweep.run_sweep(), 42)
        finally:
            for key, value in saved.items():
                if value is None:
                    sys.modules.pop(key, None)
                else:
                    sys.modules[key] = value
        self.assertIn("sweep.eigh", absent)
        self.assertNotIn("sweep.run_sweep", absent)
        values = layers.layer_metrics([{"absent": absent, "spans": recorder.spans}])
        self.assertNotIn("sweep.eigh.calls", values)
        self.assertEqual(values["sweep.run_sweep.self_s"], recorder.spans[0]["end"]
                         - recorder.spans[0]["start"])


class Names(unittest.TestCase):
    """The metrics the benchmark computes are exactly those BENCHMARK.json declares."""

    def test_metric_names_and_units(self):
        timed = {"traced": False, "complete": True, "wall": 2.0, "cpu": 2.0, "rss_mb": 9.0,
                 "id": "pass0"}
        record = {"setup_s": 0.5, "absent": [],
                  "spans": [{"name": "cli.main", "start": 0.0, "end": 1.0, "parent": None}]}
        step = {"name": "c", "record": record, "teardown": 0.1, "wall": 2.0}
        traced = dict(timed, traced=True, id="pass1", steps=[step])
        e2e, _ = run.end_to_end([timed], [0.5], 1, 0)
        layer, _ = run.per_layer([timed, traced], [0.5])
        spec = run.SPEC
        self.assertEqual(sorted(m["name"] for m in spec["end_to_end"]), sorted(e2e))
        self.assertEqual(sorted(m["name"] for m in spec["per_layer"]), sorted(layer))
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"] + spec["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertIsNotNone(NAME.fullmatch(name), name)
        for metric in spec["end_to_end"] + spec["per_layer"]:
            self.assertIsNotNone(UNIT.fullmatch(metric["unit"]), metric["unit"])
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]), sorted(run.WORKLOADS))


class MissingSources(unittest.TestCase):
    def test_exits_nonzero_without_printing_a_result(self):
        saved = run.SRC
        run.SRC = os.path.join(run.ROOT, "no-such-directory")
        stdout, stderr = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = run.main(["--workload", "desk"])
        finally:
            run.SRC = saved
        self.assertEqual(code, 2)
        self.assertEqual(stdout.getvalue(), "")


if __name__ == "__main__":
    unittest.main()
