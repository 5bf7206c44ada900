"""CSV/JSON persistence with a reproducible metadata block."""

import contextlib
import csv
import json
import math
import os
from datetime import datetime, timezone

import numpy as np

from . import __version__ as ARTIFACT_VERSION
from .bloch import Atlas
from .errors import InvalidArgumentError
from .sweep import CutoffResult, SweepRecord

SWEEP_SCHEMA_VERSION = 1


def metadata_block(config):
    """Config echo plus artifact version and timestamp."""
    meta = {key: config[key] for key in sorted(config)}
    meta["artifact_version"] = ARTIFACT_VERSION
    meta["timestamp"] = datetime.now(timezone.utc).isoformat()
    return meta


@contextlib.contextmanager
def _replacing(path):
    """Text handle on path + '.tmp', moved onto path once the block ends, so
    an error part-way leaves no partial file and any old file unchanged."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_csv(path, fieldnames, rows, config):
    """CSV file preceded by '# key: value' metadata comment lines.

    rows is an iterable of rows for csv.writer, or a 2-D float array whose
    values are written as repr of Python floats, 1024 rows at a time. Each
    distinct value of a block is formatted once: values are told apart by
    their bits, so -0.0 and 0.0 keep their own text. Everything after the
    metadata block is a deterministic function of the rows; the timestamp
    lives on its own comment line so that files from identical configs
    differ only there.
    """
    with _replacing(path) as fh:
        for key, value in metadata_block(config).items():
            fh.write(f"# {key}: {value}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fieldnames)
        if not isinstance(rows, np.ndarray):
            writer.writerows(rows)
            return
        for start in range(0, len(rows), 1024):
            block = rows[start:start + 1024].astype(float)
            # ravel first: numpy 2.0 shapes the inverse like the input
            bits, inverse = np.unique(
                block.ravel().view(np.int64), return_inverse=True
            )
            text = np.array(list(map(repr, bits.view(float).tolist())), dtype=object)
            cells = text[inverse].reshape(block.shape).tolist()
            fh.write("".join(",".join(row) + "\n" for row in cells))


def _numpy_to_json(value):
    """json's `default` hook: numpy arrays and scalars go as lists and numbers."""
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def write_json(path, payload, config):
    """JSON file with a 'metadata' block holding the config echo. json streams
    the indented document, so one numpy array at a time exists as lists."""
    doc = {"metadata": metadata_block(config)}
    doc.update(payload)
    with _replacing(path) as fh:
        json.dump(doc, fh, indent=1, sort_keys=True, default=_numpy_to_json)
        fh.write("\n")


def write_sweep(path, record, config):
    """sweep.json for a SweepRecord: the atlas, the infidelity matrix and one
    block per cutoff, under the current schema version."""
    per_cutoff = {str(n): record.results[n]._asdict() for n in record.cutoffs}
    atlas = record.atlas
    payload = {
        "schema_version": SWEEP_SCHEMA_VERSION,
        "delta": atlas.delta,
        "seed": atlas.seed,
        "cutoffs": record.cutoffs,
        "atlas": {
            "points": atlas.points,
            "labels": atlas.labels,
            "delta": atlas.delta,
            "seed": atlas.seed,
        },
        "infidelity": record.infidelity,
        "per_cutoff": per_cutoff,
    }
    write_json(path, payload, config)


def _float_array(value, name, *shape):
    """value as a finite float array of the given shape; ValueError otherwise."""
    array = np.array(value)
    # numpy reads a JSON true or false among numbers as 1.0 or 0.0
    entries = np.ravel(np.array(value, dtype=object))
    if array.dtype.kind not in "iuf" or bool in map(type, entries):
        raise ValueError(f"{name} holds values that are not numbers")
    if array.shape != shape:
        raise ValueError(f"{name} has shape {array.shape}, expected {shape}")
    if not np.isfinite(array).all():
        raise ValueError(f"{name} holds a non-finite number")
    return array.astype(float, copy=False)


def _reject_constant(name):
    """json's hook for NaN, Infinity and -Infinity, which no sweep holds."""
    raise ValueError(f"non-finite number {name}")


def load_sweep(path):
    """The SweepRecord stored in the sweep.json file at path.

    Raises InvalidArgumentError when the file is corrupt (a NaN or an
    infinity anywhere in it included), is not a JSON object, carries another
    schema version, lacks a key sweep writes (at the top level, in the atlas
    or in a per-cutoff block), or is inconsistent: cutoffs that are not
    distinct ascending ints naming the per-cutoff blocks, arrays that hold
    anything but numbers or whose shapes do not fit M (M, 3) points, labels
    that are not M strings, or a parity gap that is not a positive number.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh, parse_constant=_reject_constant)
    except ValueError as exc:  # also JSONDecodeError and UnicodeDecodeError
        raise InvalidArgumentError(f"corrupt sweep file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise InvalidArgumentError(f"corrupt sweep file {path}: not a JSON object")
    if doc.get("schema_version") != SWEEP_SCHEMA_VERSION:
        raise InvalidArgumentError(
            f"unknown sweep schema version {doc.get('schema_version')!r}; "
            f"expected {SWEEP_SCHEMA_VERSION}"
        )
    keys = {"delta", "seed", "cutoffs", "atlas", "infidelity", "per_cutoff"}
    if not keys <= doc.keys() or not isinstance(doc["per_cutoff"], dict):
        bad = sorted(keys - doc.keys()) or ["per_cutoff"]
        raise InvalidArgumentError(f"corrupt sweep file {path}: missing or bad {bad}")
    blocks = [(doc["atlas"], {"points", "labels", "delta", "seed"})]
    for block in doc["per_cutoff"].values():
        blocks.append((block, set(CutoffResult._fields)))
    for block, wanted in blocks:
        if not isinstance(block, dict) or not wanted <= block.keys():
            raise InvalidArgumentError(
                f"corrupt sweep file {path}: a block lacks one of {sorted(wanted)}"
            )
    atlas, cutoffs = doc["atlas"], doc["cutoffs"]
    try:
        if not isinstance(cutoffs, list) or any(type(n) is not int for n in cutoffs):
            raise ValueError(f"cutoffs {cutoffs!r} are not a list of ints")
        if sorted(set(cutoffs)) != cutoffs:
            raise ValueError(f"cutoffs {cutoffs} are not distinct and ascending")
        if set(doc["per_cutoff"]) != {str(n) for n in cutoffs}:
            raise ValueError(f"cutoffs {cutoffs} do not name the per-cutoff blocks")
        m, labels = len(atlas["points"]), atlas["labels"]
        if not (isinstance(labels, list) and len(labels) == m
                and all(type(label) is str for label in labels)):
            raise ValueError(f"labels are not a list of {m} strings")
        record = SweepRecord(
            atlas=Atlas(_float_array(atlas["points"], "points", m, 3),
                        labels, atlas["delta"], atlas["seed"]),
            cutoffs=cutoffs,
            infidelity=_float_array(doc["infidelity"], "infidelity", m, m),
        )
        for n in cutoffs:
            block = doc["per_cutoff"][str(n)]
            gap = block["parity_gap"]  # bool is an int, 1e999 reads as inf
            if type(gap) not in (int, float) or not 0 < gap < math.inf:
                raise ValueError(f"parity gap at N = {n} is {gap!r}")
            record.results[n] = CutoffResult(
                _float_array(block["expectation"], f"expectation at N = {n}", m, m),
                _float_array(
                    block["ground_energies"], f"ground energies at N = {n}", m
                ),
                float(gap),
            )
    except (TypeError, ValueError) as exc:
        raise InvalidArgumentError(f"corrupt sweep file {path}: {exc}") from exc
    return record


def read_csv(path):
    """Read a metadata-prefixed CSV; returns (metadata, header, rows)."""
    meta = {}
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    body_start = 0
    for i, line in enumerate(lines):
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            meta[key] = value
            body_start = i + 1
        else:
            break
    rows = list(csv.reader(lines[body_start:]))
    return meta, rows[0], rows[1:]
