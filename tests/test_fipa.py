"""Performative translation, projection, automata, trace inclusion."""

import json

import pytest

from muacp import schema, wire
from muacp.fipa import (
    PROC_CODES,
    ConversationAutomaton,
    Edge,
    FipaError,
    Performative,
    PerformativeAction,
    TooLarge,
    accepting_runs,
    check_trace_inclusion,
    content_of,
    enumerate_traces,
    procedural_bound_check,
    project,
    translate,
)
from muacp.wire import CONTENT_ACTION, CONTENT_LITERAL, OptionType, Verb
from oracles import mutated_translate


def act(p, content="c", **kw):
    return PerformativeAction(
        performative=p, sender="a", receiver="b", content=content, **kw
    )


# -- translation table ---------------------------------------------------------


def test_inform_becomes_literal_tell():
    m = translate(act(Performative.INFORM, "door_open"), cid=5)
    assert m.header.verb == Verb.TELL
    assert m.header.correlation_id == 5
    assert m.find(OptionType.CONTENT_TYPE).value == bytes((CONTENT_LITERAL,))
    assert m.payload == b"door_open"


def test_request_becomes_action_ask():
    m = translate(act(Performative.REQUEST, "reboot()"), cid=5)
    assert m.header.verb == Verb.ASK
    assert m.find(OptionType.CONTENT_TYPE).value == bytes((CONTENT_ACTION,))
    assert m.payload == b"reboot()"


def test_query_if_becomes_literal_ask():
    m = translate(act(Performative.QUERY_IF, "temp_ok"), cid=1)
    assert m.header.verb == Verb.ASK
    assert m.find(OptionType.CONTENT_TYPE).value == bytes((CONTENT_LITERAL,))


def test_subscribe_becomes_observe_with_topic():
    m = translate(act(Performative.SUBSCRIBE, "alerts", topic="alerts"), cid=1)
    assert m.header.verb == Verb.OBSERVE
    assert m.find(OptionType.TOPIC).value == b"alerts"
    assert m.payload == b""


def test_not_understood_becomes_error_ping():
    m = translate(act(Performative.NOT_UNDERSTOOD, "bad"), cid=1)
    assert m.header.verb == Verb.PING
    assert m.header.is_error
    assert m.find(OptionType.ERR).value == b"bad"
    assert m.payload == b""


@pytest.mark.parametrize(
    "perf,verb",
    [
        (Performative.AGREE, Verb.TELL),
        (Performative.REFUSE, Verb.TELL),
        (Performative.CFP, Verb.ASK),
        (Performative.PROPOSE, Verb.TELL),
        (Performative.ACCEPT_PROPOSAL, Verb.TELL),
        (Performative.REJECT_PROPOSAL, Verb.TELL),
        (Performative.FORWARD, Verb.TELL),
        (Performative.PROXY, Verb.ASK),
    ],
)
def test_procedural_performatives_ride_proc_options(perf, verb):
    m = translate(act(perf, "x"), cid=0xABCD)
    assert m.header.verb == verb
    assert m.find(OptionType.PROC).value == bytes((PROC_CODES[perf],))
    assert wire.decode_u32(m.find(OptionType.CID).value) == 0xABCD


def test_proc_codes_are_distinct_single_bytes():
    codes = list(PROC_CODES.values())
    assert len(set(codes)) == len(codes) == 8
    assert all(1 <= c <= 255 for c in codes)


def test_proc_codes_are_the_wire_constants():
    # Traffic takes its PROC codes from wire without loading this module,
    # so the table must read the same constants.
    assert PROC_CODES == {
        p: getattr(wire, f"PROC_{p.name}") for p in PROC_CODES}
    assert sorted(PROC_CODES.values()) == sorted(
        getattr(wire, n) for n in dir(wire) if n.startswith("PROC_"))


def test_mutated_translation_sends_a_request_as_an_inform():
    request = act(Performative.REQUEST, "go()")
    assert mutated_translate(request, cid=3) == translate(
        act(Performative.INFORM, "go()"), cid=3)
    query = act(Performative.QUERY_IF, "p")
    assert mutated_translate(query, cid=3) == translate(query, cid=3)


# -- projection -------------------------------------------------------------


@pytest.mark.parametrize("perf", list(Performative))
def test_projection_inverts_translation(perf):
    cid = 0x12345
    for topic in (None, "alerts"):
        action = act(perf, "payload()", topic=topic)
        ev = project(translate(action, cid), sender=0, receiver=1, tick=9)
        assert ev is not None
        assert (ev.tag, ev.content, ev.cid) == (
            perf, content_of(action), cid & 0xFFFF)
        assert (ev.sender, ev.receiver, ev.tick) == (0, 1, 9)


def test_ask_that_carries_err_still_projects():
    # only a TELL that carries ERR is an auxiliary "unknown" answer
    m = translate(act(Performative.QUERY_IF, "p"), cid=3)
    m = wire.message(Verb.ASK, correlation_id=3,
                     options=(*m.options, wire.opt_err("x")),
                     payload=m.payload)
    ev = project(m, 0, 1, 0)
    assert (ev.tag, ev.content) == (Performative.QUERY_IF, "p")


def test_subscribe_projects_topic_as_content():
    ev = project(translate(act(Performative.SUBSCRIBE, "alerts"), cid=3),
                 0, 1, 0)
    assert ev.tag == Performative.SUBSCRIBE
    assert ev.content == "alerts"


def test_auxiliary_traffic_projects_to_none():
    pong = wire.message(wire.Verb.PING, flags=wire.FLAG_RESPONSE)
    assert project(pong, 0, 1, 0) is None
    unknown = wire.message(
        wire.Verb.TELL,
        options=(wire.opt_err("unknown"),),
        payload=b"q",
        flags=wire.FLAG_RESPONSE,
    )
    assert project(unknown, 0, 1, 0) is None
    opaque = wire.message(wire.Verb.TELL, payload=b"\x80\x81")
    assert project(opaque, 0, 1, 0) is None


# -- automata ----------------------------------------------------------------


def chain(name, *actions, nesting=1, knowledge=None):
    states = [f"s{i}" for i in range(len(actions) + 1)]
    edges = tuple(
        Edge(**vars(a), frm=states[i], to=states[i + 1])
        for i, a in enumerate(actions)
    )
    return ConversationAutomaton(
        name=name,
        roles=("a", "b"),
        states=tuple(states),
        initial="s0",
        accepting=(states[-1],),
        edges=edges,
        nesting_depth=nesting,
        knowledge=knowledge or {},
    )


def test_automaton_validation_catches_bad_references():
    with pytest.raises(FipaError):
        ConversationAutomaton(
            name="x", roles=("a",), states=("s0",), initial="nope",
            accepting=("s0",), edges=(),
        )
    with pytest.raises(FipaError):
        # two conversations under nesting depth 1
        chain(
            "x",
            act(Performative.INFORM, conversation="side"),
            act(Performative.INFORM, conversation="main"),
        )


def test_enumerate_traces_counts_prefixes():
    auto = chain(
        "two",
        act(Performative.INFORM, "p"),
        act(Performative.INFORM, "q"),
    )
    assert len(enumerate_traces(auto, max_len=8)) == 2
    assert len(enumerate_traces(auto, max_len=1)) == 1


def test_enumerate_traces_caps_explosions():
    # self-loop: traces of every length
    a = act(Performative.INFORM, "p")
    auto = ConversationAutomaton(
        name="loop", roles=("a", "b"), states=("s0",), initial="s0",
        accepting=("s0",), edges=(Edge(**vars(a), frm="s0", to="s0"),),
    )
    assert len(enumerate_traces(auto, max_len=5)) == 5
    with pytest.raises(TooLarge):
        enumerate_traces(auto, max_len=50, cap=10)


def test_trace_cap_counts_actions():
    def loops(n):
        edges = tuple(Edge(**vars(act(Performative.INFORM, f"p{i}")),
                           frm="s0", to="s0") for i in range(n))
        return ConversationAutomaton(
            name="loops", roles=("a", "b"), states=("s0",), initial="s0",
            accepting=("s0",), edges=edges)

    # 3 loops: 9,840 traces holding sum(k * 3**k) actions to length 8
    assert sum(map(len, enumerate_traces(loops(3), max_len=8))) == 73_812
    # 4 loops: only 87,380 traces, but 669,924 actions to execute
    with pytest.raises(TooLarge, match="more than 100000 actions"):
        enumerate_traces(loops(4), max_len=8)
    with pytest.raises(TooLarge, match="more than 100000 actions"):
        accepting_runs(loops(4), max_len=8)


def test_accepting_runs_end_in_accepting_states():
    auto = schema.load("protocols/contract_net.json", ConversationAutomaton)
    runs = accepting_runs(auto, len(auto.states))
    accepting = set(auto.accepting)
    assert runs and all(r[-1].to in accepting for r in runs)
    assert all(r[0].frm == auto.initial for r in runs)


def test_json_roundtrip(tmp_path):
    auto = chain("rt", act(Performative.REQUEST, "go()"),
                 knowledge={"b": ("ready",)})
    path = tmp_path / "rt.json"
    path.write_text(json.dumps(auto.to_json()))
    assert schema.load(str(path), ConversationAutomaton) == auto


# -- trace inclusion ------------------------------------------------------------


def test_single_inform_covered():
    auto = chain("one", act(Performative.INFORM, "fact"))
    rep = check_trace_inclusion(auto)
    assert rep.ok and rep.covered == 1


def test_request_reply_covered_by_responder_semantics():
    # the worker's done() answer must be matched, not injected
    auto = chain(
        "rr",
        PerformativeAction(
            performative=Performative.REQUEST, sender="a", receiver="b",
            content="go()",
        ),
        PerformativeAction(
            performative=Performative.INFORM, sender="b", receiver="a",
            content="done(go())",
        ),
    )
    rep = check_trace_inclusion(auto)
    assert rep.ok


def test_query_answer_covered_with_preloaded_knowledge():
    auto = chain(
        "q",
        PerformativeAction(
            performative=Performative.QUERY_IF, sender="a", receiver="b",
            content="ready",
        ),
        PerformativeAction(
            performative=Performative.INFORM, sender="b", receiver="a",
            content="ready",
        ),
        knowledge={"b": ["ready"]},
    )
    rep = check_trace_inclusion(auto)
    assert rep.ok


def test_mutated_translation_caught():
    auto = chain(
        "rr",
        PerformativeAction(
            performative=Performative.REQUEST, sender="a", receiver="b",
            content="go()",
        ),
        PerformativeAction(
            performative=Performative.INFORM, sender="b", receiver="a",
            content="done(go())",
        ),
    )
    rep = check_trace_inclusion(auto, translate_fn=mutated_translate)
    assert not rep.ok
    assert rep.uncovered[0].failed_at == 0


def test_shipped_protocols_covered():
    for name in ("inform", "request_response", "query",
                 "subscribe_notify", "contract_net"):
        auto = schema.load(f"protocols/{name}.json", ConversationAutomaton)
        rep = check_trace_inclusion(auto, max_len=8)
        assert rep.ok, f"{name}: {[(u.failed_at, u.reason) for u in rep.uncovered[:2]]}"


def test_conversation_cid_discipline_in_nested_protocol():
    # clarify and main run over distinct correlation ids by construction;
    # a trace mixing them must still be covered (fresh cid per conversation)
    auto = schema.load("protocols/contract_net.json", ConversationAutomaton)
    traces = enumerate_traces(auto, max_len=8)
    nested = [
        t for t in traces
        if {e.conversation for e in t} == {"main", "clarify"}
    ]
    assert nested, "expected traces exercising the nested conversation"
    rep = check_trace_inclusion(auto, max_len=8)
    assert rep.ok


# -- procedural bound ---------------------------------------------------------


def test_bound_on_shipped_protocols():
    for name in ("inform", "query", "contract_net"):
        auto = schema.load(f"protocols/{name}.json", ConversationAutomaton)
        rep = procedural_bound_check(auto)
        assert rep.ok
        assert rep.max_semantic_messages <= rep.state_count


def test_bound_counts_semantic_messages_only():
    auto = chain("one", act(Performative.INFORM, "fact"))
    rep = procedural_bound_check(auto)
    assert rep.runs_executed == 1
    assert rep.max_semantic_messages == 1   # acks and pongs not counted
