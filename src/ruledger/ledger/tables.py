"""Ledger state tables.

State is a set of named tables of flat rows (string or integer cells).
Invariant: rows change only through insert and update.  Reads go through
find, which returns the ids of the rows whose columns equal the given
values, in insertion order; select_entry projects those rows to columns
in a caller-chosen order.  find keeps one hash index per tuple of queried
columns, built lazily on its first query and kept current by insert and
update, so a write made any other way is invisible to built indexes.
Columns are checked once per tuple, when find builds its index (an unknown
one raises UnknownColumnError before any ValueError for a length mismatch,
which is checked on every call); insert checks each row's columns against
the schema, and update the one column it writes.
"""

from __future__ import annotations

from bisect import insort
from typing import Any, Sequence

from ..canonical import digest_hex


class UnknownTableError(KeyError):
    pass


class UnknownColumnError(KeyError):
    pass


class LedgerTable:
    def __init__(self, name: str, columns: Sequence[str]):
        self.name = name
        self.columns = tuple(columns)
        self._column_set = frozenset(self.columns)
        self.rows: list[dict] = []
        # queried columns -> their values in a row -> ids of those rows
        self._indexes: dict[tuple[str, ...], dict[tuple, list[int]]] = {}

    def insert(self, row: dict) -> int:
        """Append a row, returning its row id (insertion index)."""
        if row.keys() != self._column_set:
            raise UnknownColumnError(
                f"{self.name}: row columns {sorted(row)} != schema {sorted(self.columns)}"
            )
        row_id = len(self.rows)
        self.rows.append(dict(row))
        for keys, index in self._indexes.items():
            index.setdefault(tuple(row[k] for k in keys), []).append(row_id)
        return row_id

    def update(self, row_id: int, column: str, value: Any) -> None:
        if column not in self.columns:
            raise UnknownColumnError(f"{self.name}: no column {column}")
        row = self.rows[row_id]
        for keys, index in self._indexes.items():
            # Equivalent mutant: True re-files the row under its unchanged values.
            if column in keys:
                old = tuple(row[k] for k in keys)
                index[old].remove(row_id)
                # Equivalent mutant: False keeps an empty bucket, which find reads as no match.
                if not index[old]:
                    del index[old]
                new = tuple(value if k == column else row[k] for k in keys)
                insort(index.setdefault(new, []), row_id)
        row[column] = value

    def find(self, cond_keys: Sequence[str], cond_vals: Sequence[Any]) -> list[int]:
        """Ids of the rows matching all (key == val) conditions, in insertion order."""
        keys = tuple(cond_keys)
        index = self._indexes.get(keys)
        # Equivalent mutant: True checks and rebuilds the index on every call, to equal ids.
        if index is None:
            for col in keys:
                if col not in self.columns:
                    raise UnknownColumnError(f"{self.name}: no column {col}")
            index = self._indexes[keys] = {}
            for row_id, row in enumerate(self.rows):
                index.setdefault(tuple(row[k] for k in keys), []).append(row_id)
        if len(keys) != len(cond_vals):
            raise ValueError("cond_keys and cond_vals differ in length")
        return list(index.get(tuple(cond_vals), ()))


# Table names and schemas.  trigger_event mirrors the verification
# contract's query shape: rule binding row id, step, task, result.
ACL = "acl"
RULE = "rule"
USR_RULE = "usr_rule"
TRIGGER_EVENT = "trigger_event"
EVENT_RECORD = "event_record"
EVENT_INDEX = "event_index"
ACTION = "action"
DEVICE_BINDING = "device_binding"

SCHEMAS: dict[str, tuple[str, ...]] = {
    ACL: ("signer", "role", "usr_id"),
    RULE: ("rule_id", "usr_id", "title", "definition"),
    USR_RULE: ("usr_rule_id", "usr_id", "rule_id", "rule_name"),
    TRIGGER_EVENT: ("tRule_id", "tStep_id", "tTask_id", "tResult"),
    EVENT_RECORD: (
        "rule_id",
        "event_seq",
        "usr_rule_id",
        "usr_id",
        "rule_name",
        "step_id",
        "eid",
        "log_key",
        "log_sum",
        "consumed",
    ),
    EVENT_INDEX: ("rule_id", "event_seq", "eid"),
    ACTION: ("rule_id", "task_id", "step_id", "op_name", "device_id"),
    DEVICE_BINDING: ("usr_id", "device_id", "vendor"),
}


class TableStore:
    """All ledger tables of one node, plus the derived state digest."""

    def __init__(self) -> None:
        self.tables: dict[str, LedgerTable] = {
            name: LedgerTable(name, cols) for name, cols in SCHEMAS.items()
        }

    def table(self, name: str) -> LedgerTable:
        try:
            return self.tables[name]
        except KeyError:
            raise UnknownTableError(name) from None

    def insert(self, table: str, row: dict) -> int:
        return self.table(table).insert(row)

    def select_entry(
        self,
        table: str,
        cond_keys: Sequence[str],
        cond_vals: Sequence[Any],
        projection: Sequence[str],
    ) -> list[list[Any]]:
        """Rows matching all (key == val) conditions, in insertion order,
        each projected to the requested columns."""
        tbl = self.table(table)
        for col in projection:
            if col not in tbl.columns:
                raise UnknownColumnError(f"{table}: no column {col}")
        rows = tbl.rows
        return [[rows[i][c] for c in projection] for i in tbl.find(cond_keys, cond_vals)]

    def snapshot(self) -> dict:
        return {name: [dict(r) for r in tbl.rows] for name, tbl in self.tables.items()}

    def state_digest(self) -> str:
        return digest_hex(self.snapshot())
