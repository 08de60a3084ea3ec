"""Config (de)serialization: one typed reader for every config class."""

import copy
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from muacp.consensus import CampaignConfig, DecreeConfig
from muacp.resources import CostModel
from muacp.schema import ConfigError
from muacp.simnet import SimConfig
from muacp.workloads import ScaleConfig

ROOT = Path(__file__).resolve().parent.parent

EXAMPLES = {
    "SimConfig": SimConfig(seed=3, gst=50, delta=4, drop_rate=0.25,
                           rate_cap=7, fault_schedule=((1, 9),)),
    "ScaleConfig": ScaleConfig(n=12, cnet_initiators=2, committee=3,
                               tick_ms=2.5),
    "DecreeConfig": DecreeConfig(n=5, proposers=(0, 2), values=("a", "b"),
                                 sim=SimConfig(seed=3), until=99),
    "CampaignConfig": CampaignConfig(base=DecreeConfig(n=3), seeds=(4, 5),
                                     crash_count=1, crash_window=(2, 9)),
    "CostModel": CostModel(per_byte_bandwidth="2/3", per_message_cpu=1),
}


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_config_json_roundtrip(name):
    cfg = EXAMPLES[name]
    cls = type(cfg)
    assert cls.from_json(cfg.to_json()) == cfg
    assert cls.from_json(json.loads(json.dumps(cfg.to_json()))) == cfg
    with pytest.raises(ConfigError, match="^sprocket: unknown field$"):
        cls.from_json({**cfg.to_json(), "sprocket": 1})


def _shipped() -> dict:
    docs = {
        p.name: (CampaignConfig if p.name.startswith("consensus")
                 else ScaleConfig, json.loads(p.read_text()))
        for p in sorted((ROOT / "configs").glob("*.json"))
    }
    # the fractional cost model of the agent_budgeted benchmark workload
    docs["cost_model"] = (CostModel, {"per_byte_bandwidth": "2/3",
                                      "per_message_cpu": "5/7",
                                      "per_byte_cpu": "1/11",
                                      "buffer_per_byte": "1/3"})
    return docs


SHIPPED = _shipped()


def test_shipped_configs_read_back_unchanged():
    for name, (cls, doc) in SHIPPED.items():
        doc = dict(doc)
        if cls is CampaignConfig:
            start, count = doc.pop("seed_base"), doc.pop("seed_count")
            doc["seeds"] = list(range(start, start + count))
        elif cls is CostModel:
            doc = {**CostModel().to_json(), **doc}
        assert cls.from_json(doc).to_json() == doc, name
    # no coercion: an int stays an int where a float is declared
    assert type(ScaleConfig.from_json({"tick_ms": 2}).tick_ms) is int


@pytest.mark.parametrize("doc, message", [
    ({"drop_rate": True}, "drop_rate: expected float, got bool"),
    ({"seed": False}, "seed: expected int, got bool"),
    ({"drop_rate": float("nan")}, "drop_rate: expected a finite number"),
    ({"dup_rate": float("inf")}, "dup_rate: expected a finite number"),
    ({"rate_cap": 2.0}, "rate_cap: expected int, got float"),
    ({"fault_schedule": [[1, 2, 3]]}, "fault_schedule[0]: expected 2 items"),
    ({"fault_schedule": [[1, "2"]]},
     "fault_schedule[0][1]: expected int, got str"),
    ({"fault_schedule": {"0": 1}}, "fault_schedule: expected a list"),
])
def test_reader_rejects_ill_typed_fields_by_path(doc, message):
    with pytest.raises(ConfigError) as exc:
        SimConfig.from_json(doc)
    assert str(exc.value).startswith(message)


def test_fraction_fields_read_exactly():
    model = CostModel.from_json(
        {"per_byte_cpu": 0.1, "buffer_per_byte": "2/3", "per_message_cpu": 3}
    )
    assert model.per_byte_cpu == Fraction(1, 10)
    assert model.buffer_per_byte == Fraction(2, 3)
    assert model.per_message_cpu == 3
    for junk in ("1/0", "abc", -1, True, [1]):
        with pytest.raises(ConfigError):
            CostModel.from_json({"per_byte_cpu": junk})


def _paths(obj, prefix=()):
    yield prefix
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def _at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


junk = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3)
    | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_mutated_configs_give_a_config_or_a_config_error(data):
    """Drop a key, add a key or swap a value for junk anywhere in a
    shipped config: the reader returns a config or raises ConfigError."""
    cls, doc = SHIPPED[data.draw(st.sampled_from(sorted(SHIPPED)))]
    doc = copy.deepcopy(doc)
    path = data.draw(st.sampled_from(list(_paths(doc))))
    op = data.draw(st.sampled_from(["drop", "add", "swap"]))
    target = _at(doc, path)
    if op == "add" and isinstance(target, dict):
        target[data.draw(st.text(max_size=8))] = data.draw(junk)
    elif op == "add" and isinstance(target, list):
        target.append(data.draw(junk))
    elif op == "drop" and path:
        del _at(doc, path[:-1])[path[-1]]
    elif path:
        _at(doc, path[:-1])[path[-1]] = data.draw(junk)
    else:
        doc = data.draw(junk)
    try:
        cfg = cls.from_json(doc)
    except ConfigError:
        return
    assert isinstance(cfg, cls)
