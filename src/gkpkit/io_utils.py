"""CSV/JSON persistence with a reproducible metadata block."""

import contextlib
import csv
import json
import os
from datetime import datetime, timezone

import numpy as np

from . import __version__ as ARTIFACT_VERSION
from .bloch import Atlas
from .errors import InvalidArgumentError
from .sweep import SweepRecord

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
    values are written as repr of Python floats, 1024 rows at a time.
    Everything after the metadata block is a deterministic function of the
    rows; the timestamp lives on its own comment line so that files from
    identical configs differ only there.
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
            block = rows[start:start + 1024].astype(float).tolist()
            fh.write("".join(",".join(map(repr, row)) + "\n" for row in block))


def write_json(path, payload, config):
    """JSON file with a 'metadata' block holding the config echo."""
    doc = {"metadata": metadata_block(config)}
    doc.update(payload)
    with _replacing(path) as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def write_sweep(path, record, config):
    """sweep.json for a SweepRecord: the atlas, the infidelity matrix and one
    block per cutoff, under the current schema version. A cutoff without a
    parity gap (read from a file written before it existed) is written
    without one."""
    per_cutoff = {}
    for n in record.cutoffs:
        block = per_cutoff[str(n)] = {
            "expectation": record.expectation[n].tolist(),
            "ground_energies": record.ground_energies[n].tolist(),
        }
        if n in record.parity_gap:
            block["parity_gap"] = record.parity_gap[n]
    atlas = record.atlas
    payload = {
        "schema_version": SWEEP_SCHEMA_VERSION,
        "delta": atlas.delta,
        "seed": atlas.seed,
        "cutoffs": record.cutoffs,
        "atlas": {
            "points": atlas.points.tolist(),
            "labels": atlas.labels,
            "delta": atlas.delta,
            "seed": atlas.seed,
        },
        "infidelity": record.infidelity.tolist(),
        "per_cutoff": per_cutoff,
    }
    write_json(path, payload, config)


def _float_array(value, name, *shape):
    """value as a float array of the given shape; ValueError otherwise."""
    array = np.array(value, dtype=float)
    if array.shape != shape:
        raise ValueError(f"{name} has shape {array.shape}, expected {shape}")
    return array


def _reject_constant(name):
    """json's hook for NaN, Infinity and -Infinity, which no sweep holds."""
    raise ValueError(f"non-finite number {name}")


def load_sweep(path):
    """The SweepRecord stored in the sweep.json file at path.

    Raises InvalidArgumentError when the file is corrupt (a NaN or an
    infinity anywhere in it included), is not a JSON object, carries another
    schema version, lacks a key sweep writes (at the top level, in the atlas
    or in a per-cutoff block), or is inconsistent: cutoffs that are not
    distinct ascending ints naming the per-cutoff blocks, or arrays whose
    shapes do not fit M (M, 3) points.
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
        blocks.append((block, {"expectation", "ground_energies"}))
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
        m = len(atlas["points"])
        record = SweepRecord(
            atlas=Atlas(_float_array(atlas["points"], "points", m, 3),
                        atlas["labels"], atlas["delta"], atlas["seed"]),
            cutoffs=cutoffs,
            infidelity=_float_array(doc["infidelity"], "infidelity", m, m),
        )
        for n in cutoffs:
            block = doc["per_cutoff"][str(n)]
            record.expectation[n] = _float_array(
                block["expectation"], f"expectation at N = {n}", m, m
            )
            record.ground_energies[n] = _float_array(
                block["ground_energies"], f"ground energies at N = {n}", m
            )
            if "parity_gap" in block:  # absent from files written before it existed
                record.parity_gap[n] = float(block["parity_gap"])
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
