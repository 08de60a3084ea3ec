"""Config (de)serialization: one typed reader for every input file."""

import contextlib
import copy
import io
import json
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from muacp import schema
from muacp.cli import main
from muacp.compression import MessageDistribution
from muacp.consensus import CampaignConfig, DecreeConfig
from muacp.fipa import ConversationAutomaton
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
    for cls, pattern in ((ConversationAutomaton, "protocols/*.json"),
                         (MessageDistribution, "configs/distributions/*.json")):
        for p in sorted(ROOT.glob(pattern)):
            docs[str(p.relative_to(ROOT))] = (cls, json.loads(p.read_text()))
    # the fractional cost model of the agent_budgeted benchmark workload
    docs["cost_model"] = (CostModel, {"per_byte_bandwidth": "2/3",
                                      "per_message_cpu": "5/7",
                                      "per_byte_cpu": "1/11",
                                      "buffer_per_byte": "1/3"})
    return docs


SHIPPED = _shipped()


def _canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True)


def test_shipped_configs_read_back_unchanged():
    for name, (cls, doc) in SHIPPED.items():
        doc = dict(doc)
        if cls is CampaignConfig:
            start, count = doc.pop("seed_base"), doc.pop("seed_count")
            doc["seeds"] = list(range(start, start + count))
        elif cls is CostModel:
            doc = {**CostModel().to_json(), **doc}
        elif cls is ConversationAutomaton:
            doc["transitions"] = [{"conversation": "main", "topic": None, **t}
                                  for t in doc["transitions"]]
        cfg = cls.from_json(doc)
        got = cfg.to_json()
        if cls is MessageDistribution:  # entries come back sorted by symbol
            got["entries"].sort(key=_canonical)
            doc["entries"] = sorted(doc["entries"], key=_canonical)
        assert got == doc, name
        assert cls.from_json(json.loads(json.dumps(got))) == cfg, name
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


def test_load_reads_a_file_through_from_json_and_names_it(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"base": {"n": 3}, "seed_count": 2}))
    assert schema.load(str(p), CampaignConfig).seeds == (0, 1)
    p.write_text(json.dumps({"base": {"n": 3}, "seeds": ["0"]}))
    with pytest.raises(ConfigError) as exc:
        schema.load(str(p), CampaignConfig)
    assert str(exc.value) == f"{p}: seeds[0]: expected int, got str"
    for data in (b"{", b"\xff"):  # not JSON; not UTF-8
        p.write_bytes(data)
        with pytest.raises(ConfigError) as exc:
            schema.load(str(p), CampaignConfig)
        assert str(exc.value).startswith(f"cannot read {p}: ")
    with pytest.raises(ConfigError, match="^cannot read .*missing.json: "):
        schema.load(str(tmp_path / "missing.json"), CampaignConfig)


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


def _mutate(data, doc):
    """`doc` with a key dropped, a key added or a value swapped for junk,
    anywhere in it."""
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
    return doc


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_mutated_configs_give_a_config_or_a_config_error(data):
    """Drop a key, add a key or swap a value for junk anywhere in a
    shipped input file: the reader returns a config or raises
    ConfigError."""
    cls, doc = SHIPPED[data.draw(st.sampled_from(sorted(SHIPPED)))]
    try:
        cfg = cls.from_json(_mutate(data, doc))
    except ConfigError:
        return
    assert isinstance(cfg, cls)


_COMMANDS = {ConversationAutomaton: "check-traces",
             MessageDistribution: "check-bound"}
CHECKED = sorted(name for name, (cls, _) in SHIPPED.items()
                 if cls in _COMMANDS)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mutated_protocols_and_distributions_exit_0_1_or_2(data):
    """A mutated protocol or distribution file through the CLI: exit 0
    or 1 with a clean stderr, or exit 2 with exactly one `error:` line;
    never an exception."""
    cls, doc = SHIPPED[data.draw(st.sampled_from(CHECKED))]
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(json.dumps(_mutate(data, doc)), encoding="utf-8")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main([_COMMANDS[cls], str(path)])
    lines = err.getvalue().splitlines()
    assert rc in (0, 1, 2)
    if rc == 2:
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
    else:
        assert lines == []
