"""Table store semantics, checked against a plain-Python filter oracle."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ruledger.ledger import tables
from ruledger.ledger.tables import (
    LedgerTable,
    TableStore,
    UnknownColumnError,
    UnknownTableError,
)


def _fill_trigger_rows(state, n=12):
    rows = []
    for i in range(n):
        row = {"tRule_id": i % 3, "tStep_id": i % 2, "tTask_id": i, "tResult": 1 if i % 4 else -1}
        state.insert(tables.TRIGGER_EVENT, row)
        rows.append(row)
    return rows


_COLS = tables.SCHEMAS[tables.TRIGGER_EVENT]
_cell = st.sampled_from([0, 1, "a"])
_keys = st.lists(st.sampled_from(_COLS[:3]), unique=True, max_size=2)
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.fixed_dictionaries({c: _cell for c in _COLS})),
        st.tuples(st.just("update"), st.integers(0, 10**6), st.sampled_from(_COLS), _cell),
        st.tuples(st.just("select"),
                  _keys.flatmap(lambda keys: st.tuples(
                      st.just(keys), st.lists(_cell, min_size=len(keys), max_size=len(keys)))),
                  st.lists(st.sampled_from(_COLS), min_size=1, max_size=4)),
    ),
    max_size=60,
)


@settings(max_examples=300)
@given(_ops)
def test_select_entry_matches_filter_oracle(ops):
    """Random interleavings of insert, update and select_entry agree, result
    by result and in order, with a linear scan over a plain list of rows,
    including after updates to columns an already-built index covers."""
    state = TableStore()
    tbl = state.table(tables.TRIGGER_EVENT)
    oracle: list[dict] = []

    def scan(keys, vals):
        return [i for i, r in enumerate(oracle) if all(r[k] == v for k, v in zip(keys, vals))]

    queried = set()
    for op in ops:
        if op[0] == "insert":
            assert state.insert(tables.TRIGGER_EVENT, op[1]) == len(oracle)
            oracle.append(dict(op[1]))
        elif op[0] == "update" and oracle:
            row_id = op[1] % len(oracle)
            tbl.update(row_id, op[2], op[3])
            oracle[row_id][op[2]] = op[3]
        elif op[0] == "select":
            (keys, vals), projection = op[1], op[2]
            queried.add(tuple(keys))
            assert tbl.find(keys, vals) == scan(keys, vals)
            assert state.select_entry(tables.TRIGGER_EVENT, keys, vals, projection) == [
                [oracle[i][c] for c in projection] for i in scan(keys, vals)
            ]
    assert tbl.rows == oracle
    # Every index built along the way must still agree for every row.
    for keys in queried:
        for row in oracle:
            vals = [row[k] for k in keys]
            assert tbl.find(keys, vals) == scan(keys, vals)


def test_select_entry_projection_order_and_empty_conditions():
    state = TableStore()
    rows = _fill_trigger_rows(state, n=4)
    got = state.select_entry(tables.TRIGGER_EVENT, [], [], ["tResult", "tRule_id"])
    assert got == [[r["tResult"], r["tRule_id"]] for r in rows]


def test_insert_returns_row_ids_in_order():
    state = TableStore()
    ids = [state.insert(tables.ACL, {"signer": f"k{i}", "role": "NormalUser", "usr_id": i})
           for i in range(3)]
    assert ids == [0, 1, 2]


def test_unknown_table_and_column_errors():
    state = TableStore()
    with pytest.raises(UnknownTableError):
        state.table("no_such_table")
    with pytest.raises(UnknownColumnError):
        state.insert(tables.ACL, {"signer": "k", "role": "NormalUser"})  # missing usr_id
    with pytest.raises(UnknownColumnError):
        state.insert(tables.ACL, {"signer": "k", "role": "r", "usr_id": 1, "extra": 2})
    with pytest.raises(UnknownColumnError):
        state.select_entry(tables.ACL, ["nope"], [1], ["signer"])
    with pytest.raises(UnknownColumnError):
        state.select_entry(tables.ACL, [], [], ["nope"])


def test_condition_length_mismatch():
    state = TableStore()
    with pytest.raises(ValueError):
        state.select_entry(tables.ACL, ["signer"], [], ["role"])


def test_find_checks_each_query_before_and_after_its_index_exists():
    """Columns are checked when a tuple's index is built and lengths on every
    call, so each fault raises on a tuple's first query and on later ones."""
    tbl = TableStore().table(tables.ACL)
    tbl.insert({"signer": "k", "role": "r", "usr_id": 1})
    for _ in range(2):
        with pytest.raises(UnknownColumnError):
            tbl.find(["signer", "nope"], ["k", 1])
        with pytest.raises(UnknownColumnError):  # both faults: the column comes first
            tbl.find(["nope"], [])
        with pytest.raises(ValueError):
            tbl.find(["usr_id"], [1, 2])
    assert tbl.find(["signer"], ["k"]) == [0]  # the tuple's index now exists
    with pytest.raises(ValueError):
        tbl.find(["signer"], [])
    with pytest.raises(ValueError):
        tbl.find(["signer"], ["k", "k"])
    assert tbl.find(["usr_id"], [1]) == [0]


@pytest.mark.parametrize("row", [{"signer": "k", "role": "r"},
                                 {"signer": "k", "role": "r", "usr_id": 2, "extra": 3}])
def test_insert_refuses_a_row_off_the_schema_after_earlier_rows(row):
    tbl = TableStore().table(tables.ACL)
    tbl.insert({"signer": "a", "role": "r", "usr_id": 1})
    assert tbl.find(["role"], ["r"]) == [0]
    with pytest.raises(UnknownColumnError):
        tbl.insert(row)
    assert len(tbl.rows) == 1 and tbl.find(["role"], ["r"]) == [0]
    assert tbl.insert({"signer": "b", "role": "r", "usr_id": 2}) == 1


def test_update_changes_cell_and_digest():
    state = TableStore()
    state.insert(tables.ACL, {"signer": "k", "role": "NormalUser", "usr_id": 1})
    before = state.state_digest()
    state.table(tables.ACL).update(0, "role", "Administrator")
    assert state.table(tables.ACL).rows[0]["role"] == "Administrator"
    assert state.state_digest() != before
    with pytest.raises(UnknownColumnError):
        state.table(tables.ACL).update(0, "nope", 1)


def test_snapshot_is_a_deep_copy():
    state = TableStore()
    state.insert(tables.ACL, {"signer": "k", "role": "NormalUser", "usr_id": 1})
    snap = state.snapshot()
    snap["acl"][0]["role"] = "Administrator"
    assert state.table(tables.ACL).rows[0]["role"] == "NormalUser"


def test_insert_copies_the_caller_row():
    tbl = LedgerTable("t", ("a",))
    row = {"a": 1}
    tbl.insert(row)
    row["a"] = 2
    assert tbl.rows[0]["a"] == 1


def test_empty_stores_share_a_digest():
    assert TableStore().state_digest() == TableStore().state_digest()


def test_schemas_cover_all_named_tables():
    state = TableStore()
    for name in (tables.ACL, tables.RULE, tables.USR_RULE, tables.TRIGGER_EVENT,
                 tables.EVENT_RECORD, tables.EVENT_INDEX, tables.ACTION,
                 tables.DEVICE_BINDING):
        assert state.table(name).columns == tables.SCHEMAS[name]
