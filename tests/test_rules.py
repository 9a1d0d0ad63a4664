"""Rule parsing, step numbering, and trigger evaluation."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from conftest import action_tx, event_info, event_tx, hr_rule, rule_commit_tx
from ruledger import contracts, rules
from ruledger.canonical import canonical_bytes, is_int, is_str
from ruledger.keys import KeyPair
from ruledger.ledger import tables
from ruledger.rules import (_COMPARATOR_CONDITION, CATALOG, COMBINATORS, CONDITION_IF_TRUE,
                            RuleDefinition, RuleError)


def test_parse_accepts_a_dict():
    raw = hr_rule()
    assert rules.parse_rule(raw).to_dict() == raw


def test_serialize_round_trips_to_canonical_bytes():
    raw = hr_rule(extra_actions=[["set_home_mode_operation", "hub-1", "OP_OR"]])
    assert canonical_bytes(rules.parse_rule(raw).to_dict()) == canonical_bytes(raw)


def _broken(**overrides):
    raw = hr_rule()
    raw.update(overrides)
    return raw


@pytest.mark.parametrize("data,code", [
    (b"{not json", "UnsupportedSchema"),
    ([1, 2], "UnsupportedSchema"),
    ({k: v for k, v in hr_rule().items() if k != "title"}, "UnsupportedSchema"),
    (dict(hr_rule(), surprise=1), "UnsupportedSchema"),
    (_broken(schema=2), "UnsupportedSchema"),
    (_broken(title=""), "UnsupportedSchema"),
    (_broken(rule_id=True), "UnsupportedSchema"),
    (_broken(rule_id=-1), "UnsupportedSchema"),
    (_broken(trigger_operations=[]), "UnsupportedSchema"),
    (_broken(trigger_operations=[["alert_on_heart_rate", "watch-1"]]), "UnsupportedSchema"),
    (_broken(trigger_operations=[["sense_aura", "watch-1", "OP_AND"]]), "UnknownOp"),
    (_broken(trigger_operations=[["open_door_operation", "lock-1", "OP_AND"]]), "UnknownOp"),
    (_broken(action_operations=[["alert_on_heart_rate", "watch-1", "OP_AND"]]), "UnknownOp"),
    (_broken(trigger_operations=[["alert_on_heart_rate", "", "OP_AND"]]), "UnboundDevice"),
    (_broken(trigger_operations=[["alert_on_heart_rate", 5, "OP_AND"]]), "UnboundDevice"),
    (_broken(action_operations=[["open_door_operation", "lock-1", "OP_XOR"]]), "BadCombinator"),
    (_broken(condition={"cmp": "ne", "field": "x", "value": 1}), "UnsupportedSchema"),
    (_broken(condition={"cmp": "ge", "field": "x"}), "UnsupportedSchema"),
    (_broken(condition={"cmp": "ge", "field": "x", "value": 1}), "UnsupportedSchema"),
    (_broken(trigger_operations=[["check_presence_operation", "hub-1", "OP_AND"]],
             condition={"cmp": "ge", "field": "presence", "value": 1}), "UnsupportedSchema"),
])
def test_parse_rejections_carry_error_codes(data, code):
    with pytest.raises(rules.RuleError) as exc:
        rules.parse_rule(data)
    assert exc.value.code == code


def test_parse_checks_devices_against_registry_when_given():
    raw = hr_rule()
    rules.parse_rule(raw, known_devices={"watch-1", "lock-1"})
    with pytest.raises(rules.RuleError) as exc:
        rules.parse_rule(raw, known_devices={"watch-1"})
    assert exc.value.code == "UnboundDevice"


def test_comparator_condition_requires_single_trigger():
    raw = hr_rule()
    raw["trigger_operations"].append(["check_presence_operation", "hub-1", "OP_AND"])
    raw["condition"] = {"cmp": "ge", "field": "heart_rate", "value": 180}
    with pytest.raises(rules.RuleError) as exc:
        rules.parse_rule(raw)
    assert exc.value.code == "UnsupportedSchema"


def test_split_assigns_trigger_steps_before_action_steps():
    raw = hr_rule(extra_actions=[["set_home_mode_operation", "hub-1", "OP_OR"]])
    raw["trigger_operations"].append(["check_presence_operation", "hub-1", "OP_AND"])
    rule = rules.parse_rule(raw)
    triggers, actions = rule.steps("trigger"), rule.steps("action")
    assert [s["step_id"] for s in triggers] == [0, 1]
    assert [s["step_id"] for s in actions] == [2, 3]
    assert [rules.CATALOG[s["op_name"]].api for s in triggers + actions] == [
        rules.HEART_RATE_API, rules.PRESENCE_API,
        rules.SMARTLOCK_UNLOCK, rules.MODE_SET_API]
    assert triggers[0]["device_id"] == "watch-1"
    assert actions[1]["device_id"] == "hub-1"


# ---------------------------------------------------------------------------
# combinator folding, through evaluate_trigger


def _fold_oracle(results, combinators):
    # restated independently: seed with the first combinator's identity,
    # then thread left to right
    acc = combinators[0] == "OP_AND"
    for r, c in zip(results, combinators):
        acc = (acc and r) if c == "OP_AND" else (acc or r)
    return acc


_READING = {"heart_rate": 70}  # the first trigger's payload


def _fold(results, combinators) -> bool:
    """evaluate_trigger on an IF_TRUE rule with one trigger operation per
    combinator, its predicates having returned results."""
    raw = hr_rule()
    raw["trigger_operations"] = [["alert_on_heart_rate", "watch-1", c] for c in combinators]
    return rules.evaluate_trigger(rules.parse_rule(raw), list(results), _READING)


def test_eval_combinator_exhaustive_up_to_four_ops():
    for n in range(1, 5):
        for results in itertools.product([False, True], repeat=n):
            for combs in itertools.product(["OP_AND", "OP_OR"], repeat=n):
                assert _fold(results, combs) == _fold_oracle(results, combs), (results, combs)


@pytest.mark.parametrize("results,combs,expected", [
    ([True], ["OP_AND"], True),      # singleton folds to itself
    ([False], ["OP_AND"], False),
    ([True], ["OP_OR"], True),
    ([False], ["OP_OR"], False),
    ([True, True, False], ["OP_AND"] * 3, False),   # pure AND == all()
    ([False, False, True], ["OP_OR"] * 3, True),    # pure OR == any()
    ([True, False], ["OP_AND", "OP_OR"], True),     # (T) then or F... then or: T
    ([False, True], ["OP_OR", "OP_AND"], False),    # F seed, or F, and T stays F
])
def test_eval_combinator_hand_computed_cells(results, combs, expected):
    assert _fold(results, combs) is expected


def test_pure_folds_match_builtin_all_any():
    for n in range(1, 5):
        for results in itertools.product([False, True], repeat=n):
            assert _fold(results, ["OP_AND"] * n) == all(results)
            assert _fold(results, ["OP_OR"] * n) == any(results)


def test_evaluate_trigger_if_true_returns_the_fold():
    rule = rules.parse_rule(hr_rule())
    assert rule.condition == "IF_TRUE"
    assert rules.evaluate_trigger(rule, [True], _READING) is True
    assert rules.evaluate_trigger(rule, [False], _READING) is False


def test_evaluate_trigger_comparator_reads_first_payload():
    raw = hr_rule()
    raw["condition"] = {"cmp": "ge", "field": "heart_rate", "value": 180}
    rule = rules.parse_rule(raw)
    assert rules.evaluate_trigger(rule, [True], {"heart_rate": 185}) is True
    assert rules.evaluate_trigger(rule, [True], {"heart_rate": 180}) is True
    assert rules.evaluate_trigger(rule, [True], {"heart_rate": 179}) is False
    assert rules.evaluate_trigger(rule, [False], {"heart_rate": 185}) is True  # the hit is not read


@pytest.mark.parametrize("cmp,value,sample,expected", [
    ("le", 40, 40, True), ("le", 40, 41, False),
    ("lt", 40, 39, True), ("lt", 40, 40, False),
    ("gt", 180, 181, True), ("gt", 180, 180, False),
    ("eq", 72, 72, True), ("eq", 72, 73, False),
])
def test_comparators(cmp, value, sample, expected):
    raw = hr_rule()
    raw["condition"] = {"cmp": cmp, "field": "heart_rate", "value": value}
    rule = rules.parse_rule(raw)
    assert rules.evaluate_trigger(rule, [True], {"heart_rate": sample}) is expected


def test_heart_rate_predicate_boundaries():
    pred = rules.CATALOG["alert_on_heart_rate"].predicate
    assert pred({"heart_rate": 40})
    assert pred({"heart_rate": 180})
    assert not pred({"heart_rate": 41})
    assert not pred({"heart_rate": 179})
    assert pred({"heart_rate": 200})


def test_presence_predicate():
    pred = rules.CATALOG["check_presence_operation"].predicate
    assert pred({"presence": "home"})
    assert not pred({"presence": "away"})


_TRIGGERS = [n for n, op in rules.CATALOG.items() if op.kind == "trigger"]
_ACTIONS = [n for n, op in rules.CATALOG.items() if op.kind == "action"]
_op_entry = lambda names: st.tuples(
    st.sampled_from(names),
    st.sampled_from(["watch-1", "lock-1", "hub-1"]),
    st.sampled_from(list(rules.COMBINATORS)),
).map(list)

rule_dicts = st.fixed_dictionaries({
    "schema": st.just(1),
    "title": st.text(min_size=1, max_size=30),
    "rule_id": st.integers(min_value=0, max_value=10**6),
    "trigger_operations": st.lists(_op_entry(_TRIGGERS), min_size=1, max_size=3),
    "condition": st.just("IF_TRUE"),
    "action_operations": st.lists(_op_entry(_ACTIONS), min_size=1, max_size=3),
})


@given(rule_dicts)
def test_generated_rules_round_trip_and_split(raw):
    parsed = rules.parse_rule(raw)
    assert parsed.to_dict() == raw
    assert canonical_bytes(parsed.to_dict()) == canonical_bytes(raw)
    triggers, actions = parsed.steps("trigger"), parsed.steps("action")
    steps = triggers + actions
    assert len(steps) == len(raw["trigger_operations"]) + len(raw["action_operations"])
    assert [s["step_id"] for s in steps] == list(range(len(steps)))
    assert [[s["op_name"], s["device_id"]] for s in triggers] == [
        op[:2] for op in raw["trigger_operations"]]
    assert [[s["op_name"], s["device_id"]] for s in actions] == [
        op[:2] for op in raw["action_operations"]]


_KEY = KeyPair.from_seed(5, "acct/steps")


@given(rule_dicts)
def test_the_contracts_number_steps_as_the_rule_does(raw):
    # The event of the final trigger step is the consumable one, and an
    # action writes and returns exactly the rule's action steps.
    rule = rules.parse_rule(raw)
    state = tables.TableStore()
    contracts.apply_rule_commit(rule_commit_tx(_KEY, 1, rule=raw, usr_rule_id=7), state)
    binding = {"usr_rule_id": 7, "usr_id": 1, "rule_id": raw["rule_id"],
               "rule_name": raw["title"]}
    triggers = rule.steps("trigger")
    for seq, step in enumerate(triggers, start=1):
        info = event_info(step["step_id"], seq, binding)
        tx = event_tx(_KEY, 1 + seq, info, f"{seq:032x}", "f" * 32, "0" * 64)
        consumable = contracts.apply_event(tx, state)
        assert consumable == (step == triggers[-1])
    out = contracts.apply_action(action_tx(_KEY, 9, info, "c" * 32), state)
    assert out == rule.steps("action")
    assert state.table(tables.ACTION).rows == [
        {"rule_id": raw["rule_id"], "task_id": info["event_seq"], **step} for step in out]


# ---------------------------------------------------------------------------
# the one format check against the parser it replaced

_REF_KEYS = {"schema", "title", "rule_id", "trigger_operations", "condition",
             "action_operations"}


def _ref_check_ops(entries, expected_kind: str, known_devices) -> None:
    if not isinstance(entries, list) or not entries:
        raise RuleError("UnsupportedSchema", f"{expected_kind}_operations must be a non-empty list")
    for entry in entries:
        if not isinstance(entry, list) or len(entry) != 3:
            raise RuleError(
                "UnsupportedSchema", f"operation entry must be [op, device, combinator]: {entry!r}"
            )
        op_name, device_id, comb = entry
        op = CATALOG.get(op_name) if is_str(op_name) else None
        if op is None or op.kind != expected_kind:
            raise RuleError("UnknownOp", f"no {expected_kind} operation named {op_name!r}")
        if not isinstance(device_id, str) or not device_id:
            raise RuleError("UnboundDevice", f"bad device id {device_id!r}")
        if known_devices is not None and device_id not in known_devices:
            raise RuleError("UnboundDevice", f"device {device_id!r} is not registered")
        if comb not in COMBINATORS:
            raise RuleError("BadCombinator", f"unknown combinator {comb!r}")


def _ref_parse_rule(data, known_devices=None) -> RuleDefinition:
    """The rule parser as it stood before `rules.rule_fault`, less its JSON-text
    input, which is gone."""
    if not isinstance(data, dict):
        raise RuleError("UnsupportedSchema", "rule must be a JSON object")
    if set(data) != _REF_KEYS:
        missing = _REF_KEYS - set(data)
        extra = set(data) - _REF_KEYS
        raise RuleError(
            "UnsupportedSchema", f"bad keys (missing={sorted(missing)}, extra={sorted(extra)})"
        )
    if data["schema"] != 1 or not is_int(data["schema"]):
        raise RuleError("UnsupportedSchema", f"unsupported schema {data['schema']!r}")
    if not is_str(data["title"]) or not data["title"]:
        raise RuleError("UnsupportedSchema", "title must be a non-empty string")
    if not is_int(data["rule_id"]) or data["rule_id"] < 0:
        raise RuleError("UnsupportedSchema", "rule_id must be a non-negative integer")

    _ref_check_ops(data["trigger_operations"], "trigger", known_devices)
    _ref_check_ops(data["action_operations"], "action", known_devices)

    cond = data["condition"]
    if cond != CONDITION_IF_TRUE:
        if not _COMPARATOR_CONDITION(cond):
            raise RuleError("UnsupportedSchema", f"bad condition {cond!r}")
        if len(data["trigger_operations"]) != 1:
            raise RuleError(
                "UnsupportedSchema", "comparator conditions require exactly one trigger operation"
            )
        op = CATALOG[data["trigger_operations"][0][0]]
        if (op.field, op.shape) != (cond["field"], is_int):
            raise RuleError("UnsupportedSchema", f"no integer field {cond['field']!r} to compare")

    return RuleDefinition(
        schema=1,
        title=data["title"],
        rule_id=data["rule_id"],
        trigger_operations=[list(t) for t in data["trigger_operations"]],
        condition=cond,
        action_operations=[list(t) for t in data["action_operations"]],
    )


_JUNK = st.sampled_from([
    None, True, 0, 1, 2, -1, 2**64, 1.0, "", "x", "IF_TRUE", "OP_AND", "watch-1",
    "alert_on_heart_rate", [], {}, [1], [["open_door_operation", "lock-1", "OP_AND"]],
    [["alert_on_heart_rate", "watch-1"]],
    {"cmp": "ge", "field": "heart_rate", "value": 100},
])


def _ops(names):
    """Operation lists whose entries now and then hold a wrong value in any of
    their places, so that one entry may hold several faults."""
    entry = st.tuples(
        st.sampled_from(names * 8 + ["open_door_operation", "sense_aura", 5]),
        st.sampled_from(["watch-1", "lock-1", "hub-1"] * 4 + ["thermo-9", "", 5]),
        st.sampled_from(["OP_AND", "OP_OR"] * 6 + ["OP_XOR", None]),
    ).map(list)
    return st.lists(entry, min_size=1, max_size=3)


# A rule whose every field is most often well-formed.
_drafts = st.fixed_dictionaries({
    "schema": st.just(1),
    "title": st.sampled_from(["t"] * 6 + [""]),
    "rule_id": st.sampled_from([7] * 6 + [-1]),
    "trigger_operations": _ops(_TRIGGERS),
    "condition": st.just("IF_TRUE") | st.fixed_dictionaries({
        "cmp": st.sampled_from(["le", "lt", "ge", "gt", "eq"] * 2 + ["ne"]),
        "field": st.sampled_from(["heart_rate"] * 4 + ["presence", "x"]),
        "value": st.integers(-1, 250) | _JUNK,
    }, optional={"extra": st.just(1)}),
    "action_operations": _ops(_ACTIONS),
})


@st.composite
def _faulty_rules(draw):
    """A draft with up to three more faults set into it, or none: a field
    replaced, or a key dropped or added."""
    raw = draw(_drafts)
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2, 3]))):
        key = draw(st.sampled_from(sorted(_REF_KEYS)))
        how = draw(st.sampled_from(["field"] * 4 + ["drop", "add"]))
        if how == "field":
            raw[key] = draw(_JUNK)
        elif how == "drop":
            raw.pop(key, None)
        else:
            raw[draw(st.sampled_from(["surprise", "mode"]))] = draw(_JUNK)
    return raw


@settings(derandomize=True, max_examples=1000, deadline=None)
@given(data=_faulty_rules() | _JUNK,
       known=st.none() | st.sets(st.sampled_from(["watch-1", "lock-1", "hub-1"])))
def test_the_format_check_agrees_with_the_parser_it_replaced(data, known):
    for devices in (known, None):
        try:
            expected = _ref_parse_rule(data, devices)
        except RuleError as exc:
            expected = exc
        fault = rules.rule_fault(data, devices)
        if isinstance(expected, RuleError):
            assert fault is not None and f"{fault[0]}: {fault[1]}" == str(expected)
            with pytest.raises(RuleError) as exc:
                rules.parse_rule(data, devices)
            assert str(exc.value) == str(expected) and exc.value.code == expected.code
        else:
            assert fault is None and rules.parse_rule(data, devices) == expected
    assert rules.is_rule(data) == (fault is None)  # the last pass ran without devices
