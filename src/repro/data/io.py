"""CSV round-trip for record stores and matching tasks.

The public ER benchmarks ship as CSV files (tableA.csv / tableB.csv plus
train/valid/test pair lists); this module mirrors that layout so generated
benchmarks can be exported, inspected and re-loaded.

All writes are atomic (tmp file + ``os.replace`` via
:func:`repro.runtime.atomic_writer`, which also fsyncs the directory so
the rename survives a power cut): an interrupted export never leaves a
half-written table or pair list behind. A full volume surfaces as the
typed :class:`repro.runtime.DiskFull` (ENOSPC/EDQUOT, partial temp file
already cleaned up) rather than a bare ``OSError``. Readers pass the
``io:read`` fault site, so fault-injection tests can rehearse unreadable
exports too.
"""

from __future__ import annotations

import csv
from pathlib import Path

from repro.data.pairs import LabeledPairSet, RecordPair
from repro.data.records import Record, RecordStore, Schema
from repro.data.task import MatchingTask
from repro.runtime import atomic_write_text, atomic_writer, faults


def save_record_store(store: RecordStore, path: Path | str) -> None:
    """Write a store to CSV with an ``id`` column plus one per attribute."""
    with atomic_writer(Path(path), newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["id", *store.schema.attributes])
        for record in store:
            writer.writerow(
                [record.record_id]
                + [record.value(attribute) for attribute in store.schema]
            )


def load_record_store(path: Path | str, name: str, source: str) -> RecordStore:
    """Load a store written by :func:`save_record_store`."""
    source_path = Path(path)
    faults.fire("io:read")
    with source_path.open("r", newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if not header or header[0] != "id":
            raise ValueError(f"{source_path} is not a record-store CSV")
        schema = Schema(tuple(header[1:]))
        store = RecordStore(name, schema)
        for row in reader:
            if len(row) != len(header):
                raise ValueError(
                    f"{source_path}: row has {len(row)} fields, expected {len(header)}"
                )
            values = dict(zip(schema.attributes, row[1:]))
            store.add(Record(record_id=row[0], source=source, values=values))
    return store


def _save_pairs(pairs: LabeledPairSet, path: Path) -> None:
    with atomic_writer(path, newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["ltable_id", "rtable_id", "label"])
        for pair, label in pairs:
            writer.writerow([pair.left.record_id, pair.right.record_id, label])


def _load_pairs(
    path: Path, left: RecordStore, right: RecordStore
) -> LabeledPairSet:
    pairs = LabeledPairSet()
    faults.fire("io:read")
    with path.open("r", newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != ["ltable_id", "rtable_id", "label"]:
            raise ValueError(f"{path} is not a pair-list CSV")
        for left_id, right_id, label in reader:
            pairs.add(
                RecordPair(left.get(left_id), right.get(right_id)), int(label)
            )
    return pairs


def save_task(task: MatchingTask, directory: Path | str) -> None:
    """Write a task as tableA/tableB + train/valid/test CSVs."""
    target = Path(directory)
    target.mkdir(parents=True, exist_ok=True)
    save_record_store(task.left, target / "tableA.csv")
    save_record_store(task.right, target / "tableB.csv")
    _save_pairs(task.training, target / "train.csv")
    _save_pairs(task.validation, target / "valid.csv")
    _save_pairs(task.testing, target / "test.csv")
    atomic_write_text(target / "NAME", task.name + "\n")


def load_task(directory: Path | str) -> MatchingTask:
    """Load a task written by :func:`save_task`."""
    source = Path(directory)
    name = (source / "NAME").read_text(encoding="utf-8").strip()
    left = load_record_store(source / "tableA.csv", name + "/A", "A")
    right = load_record_store(source / "tableB.csv", name + "/B", "B")
    return MatchingTask(
        name=name,
        left=left,
        right=right,
        training=_load_pairs(source / "train.csv", left, right),
        validation=_load_pairs(source / "valid.csv", left, right),
        testing=_load_pairs(source / "test.csv", left, right),
    )
