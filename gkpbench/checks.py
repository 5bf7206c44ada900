"""Correctness gates on the files a workload writes, and the determinism rule.

Each gate reads the result files of one command and returns a list of
failure messages (empty when the output is correct). The tolerances are the
ones the acceptance criteria in tests/test_acceptance.py state. Only the
standard library is used, so the checks do not depend on the code they check.
"""

import csv
import hashlib
import json
import math
import os
import re

DESK_CUTOFFS = list(range(5, 121, 5))


def read_csv(path):
    """Header and rows of a CSV file, skipping its '# key: value' metadata."""
    with open(path) as fh:
        lines = [line for line in fh.read().splitlines() if not line.startswith("# ")]
    rows = list(csv.reader(lines))
    return rows[0], rows[1:]


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _finite(values):
    return all(math.isfinite(v) for v in values)


def atlas(out):
    summary = read_json(os.path.join(out, "atlas.json"))
    _, rows = read_csv(os.path.join(out, "atlas.csv"))
    failures = []
    if len(rows) != summary["size"]:
        failures.append(f"atlas.csv has {len(rows)} rows, atlas.json says {summary['size']}")
    if summary["core_count"] != 26:
        failures.append(f"atlas holds {summary['core_count']} core states, not 26")
    return failures


def sweep(out):
    doc = read_json(os.path.join(out, "sweep.json"))
    size = len(doc["atlas"]["points"])
    failures = []
    if doc["cutoffs"] != DESK_CUTOFFS or sorted(map(int, doc["per_cutoff"])) != DESK_CUTOFFS:
        failures.append("sweep.json does not hold every cutoff 5:120:5")
    for key, block in doc["per_cutoff"].items():
        matrix = block["expectation"]
        if len(matrix) != size or any(len(row) != size for row in matrix):
            failures.append(f"expectation at N={key} is not {size} x {size}")
        elif not _finite(v for row in matrix for v in row):
            failures.append(f"expectation at N={key} is not finite")
    return failures


def analyze(out):
    """Criterion 5: the slope extrapolates to 2."""
    fit = read_json(os.path.join(out, "extrapolation.json"))
    _, rows = read_csv(os.path.join(out, "regression.csv"))
    failures = []
    if len(rows) != len(DESK_CUTOFFS):
        failures.append(f"regression.csv has {len(rows)} rows")
    if not 1.9 <= fit["window_mean"] <= 2.1:
        failures.append(f"window_mean {fit['window_mean']!r} outside [1.9, 2.1]")
    if not fit["window_std"] < 0.05:
        failures.append(f"window_std {fit['window_std']!r} not below 0.05")
    return failures


def groundstate(out):
    """Criterion 3 on the ground energy, criterion 10 on the Wigner grid."""
    failures = []
    energy = read_json(os.path.join(out, "groundstate.json"))["ground_energy"]
    if not energy >= -1e-8:
        failures.append(f"ground energy {energy!r} below -1e-8")
    mass, peak = wigner_mass_and_peak(os.path.join(out, "wigner.csv"))
    if not abs(mass - 1.0) < 1e-4:
        failures.append(f"Wigner mass {mass!r} off 1 by 1e-4 or more")
    if not peak <= 1 / math.pi + 1e-9:
        failures.append(f"Wigner peak {peak!r} above 1/pi + 1e-9")
    return failures


def wigner_mass_and_peak(path):
    """Trapezoid integral and max |W| of an x,p,W grid written x-major."""
    header, rows = read_csv(path)
    if header != ["x", "p", "W"]:
        raise ValueError(f"unexpected Wigner header {header}")
    xs = sorted({float(r[0]) for r in rows})
    ps = sorted({float(r[1]) for r in rows})
    values = [float(r[2]) for r in rows]
    if len(values) != len(xs) * len(ps) or not _finite(values):
        raise ValueError("Wigner grid is not a full finite x-by-p table")
    inner = [
        _trapezoid(values[i * len(ps):(i + 1) * len(ps)], ps) for i in range(len(xs))
    ]
    return _trapezoid(inner, xs), max(abs(v) for v in values)


def _trapezoid(ys, xs):
    return sum(0.5 * (xs[i + 1] - xs[i]) * (ys[i + 1] + ys[i]) for i in range(len(xs) - 1))


def measure(out):
    """Criterion 8: the sampled witness matches the exact value and beats the bound."""
    doc = read_json(os.path.join(out, "measure.json"))
    value, sigma = doc["value"], doc["std_error"]
    failures = []
    if not (sigma > 0 and _finite([value, sigma])):
        return [f"witness {value!r} +- {sigma!r} is not a finite estimate"]
    deviation = abs(value - doc["exact_matrix_value"]) / sigma
    margin = (doc["gaussian_bound"] - value) / sigma
    if not deviation <= 4:
        failures.append(f"witness {deviation:.2f} sigma from the exact value")
    if not margin > 4:
        failures.append(f"witness only {margin:.2f} sigma below the Gaussian bound")
    return failures


def bound(out, targets=4):
    """Criterion 7: the numeric Gaussian minimum meets 5/3 - ||u||_inf."""
    header, rows = read_csv(os.path.join(out, "bound.csv"))
    gaps = [float(row[header.index("gap")]) for row in rows]
    failures = []
    if len(gaps) != targets:
        failures.append(f"bound.csv has {len(gaps)} targets, expected {targets}")
    if not _finite(gaps):
        return failures + ["bound.csv holds a non-finite gap"]
    if gaps and not max(abs(g) for g in gaps) <= 1e-3:
        failures.append(f"max |gap| {max(abs(g) for g in gaps)!r} above 1e-3")
    if gaps and not min(gaps) >= -1e-9:
        failures.append(f"gap {min(gaps)!r} violates the bound by more than 1e-9")
    return failures


def strip_timestamps(text):
    """The criterion 11 rule: drop the CSV timestamp line, blank the JSON one."""
    text = re.sub(r"# timestamp: .*\n", "", text)
    return re.sub(r'"timestamp": "[^"]*"', '"timestamp": ""', text)


def digests(root):
    """sha256 of every file under root after strip_timestamps, by relative path."""
    found = {}
    for folder, _, names in os.walk(root):
        for name in names:
            path = os.path.join(folder, name)
            with open(path) as fh:
                text = strip_timestamps(fh.read())
            found[os.path.relpath(path, root)] = hashlib.sha256(text.encode()).hexdigest()
    return found
