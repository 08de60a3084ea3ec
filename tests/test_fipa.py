"""Performative translation, projection, automata, trace inclusion."""

import json

import pytest

from muacp import wire
from muacp.fipa import (
    PROC_CODES,
    ConversationAutomaton,
    Edge,
    FipaError,
    Performative,
    PerformativeAction,
    TooLarge,
    check_trace_inclusion,
    enumerate_traces,
    load_protocol,
    mutated_translate,
    procedural_bound_check,
    project,
    translate,
)
from muacp.wire import CONTENT_ACTION, CONTENT_LITERAL, OptionType, Verb


def act(p, content="c", **kw):
    return PerformativeAction(
        performative=p, sender="a", receiver="b", content=content, **kw
    )


# -- translation table ---------------------------------------------------------


def test_inform_becomes_literal_tell():
    (fw,) = translate(act(Performative.INFORM, "door_open"), cid=5)
    assert fw.kind == "forward"
    m = fw.message
    assert m.header.verb == Verb.TELL
    assert m.header.correlation_id == 5
    assert m.find(OptionType.CONTENT_TYPE).value == bytes((CONTENT_LITERAL,))
    assert m.payload == b"door_open"


def test_request_becomes_action_ask_plus_reply_template():
    fw, reply = translate(act(Performative.REQUEST, "reboot()"), cid=5)
    assert (fw.kind, reply.kind) == ("forward", "reply")
    assert fw.message.header.verb == Verb.ASK
    assert fw.message.find(OptionType.CONTENT_TYPE).value == bytes(
        (CONTENT_ACTION,)
    )
    assert reply.message.header.verb == Verb.TELL
    assert reply.message.header.is_response
    assert reply.message.payload == b"done(reboot())"


def test_query_if_becomes_literal_ask():
    (fw,) = translate(act(Performative.QUERY_IF, "temp_ok"), cid=1)
    assert fw.message.header.verb == Verb.ASK
    assert fw.message.find(OptionType.CONTENT_TYPE).value == bytes(
        (CONTENT_LITERAL,)
    )


def test_subscribe_becomes_observe_with_topic():
    (fw,) = translate(
        act(Performative.SUBSCRIBE, "alerts", topic="alerts"), cid=1
    )
    assert fw.message.header.verb == Verb.OBSERVE
    assert fw.message.find(OptionType.TOPIC).value == b"alerts"


def test_not_understood_becomes_error_ping():
    (fw,) = translate(act(Performative.NOT_UNDERSTOOD, "bad"), cid=1)
    assert fw.message.header.verb == Verb.PING
    assert fw.message.header.is_error
    assert fw.message.find(OptionType.ERR).value == b"bad"


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
    (fw,) = translate(act(perf, "x"), cid=0xABCD)
    m = fw.message
    assert m.header.verb == verb
    assert m.find(OptionType.PROC).value == bytes((PROC_CODES[perf],))
    assert wire.decode_u32(m.find(OptionType.CID).value) == 0xABCD


def test_proc_codes_are_distinct_single_bytes():
    codes = list(PROC_CODES.values())
    assert len(set(codes)) == len(codes) == 8
    assert all(1 <= c <= 255 for c in codes)


# -- projection -------------------------------------------------------------


@pytest.mark.parametrize(
    "perf",
    [
        Performative.INFORM,
        Performative.REQUEST,
        Performative.QUERY_IF,
        Performative.CFP,
        Performative.PROPOSE,
        Performative.REFUSE,
        Performative.NOT_UNDERSTOOD,
    ],
)
def test_projection_inverts_translation(perf):
    (fw, *_) = translate(act(perf, "payload()"), cid=3)
    ev = project(fw.message, sender=0, receiver=1, tick=9)
    assert ev is not None
    assert ev.tag == perf
    assert (ev.sender, ev.receiver, ev.tick) == (0, 1, 9)


def test_subscribe_projects_topic_as_content():
    (fw,) = translate(act(Performative.SUBSCRIBE, "alerts"), cid=3)
    ev = project(fw.message, 0, 1, 0)
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


def test_product_relabels_conversations():
    left = chain("l", act(Performative.INFORM, "p"))
    right = chain("r", act(Performative.INFORM, "q"))
    prod = left.product(right)
    convs = {e.conversation for e in prod.edges}
    assert convs == {"L.main", "R.main"}
    assert prod.nesting_depth == 2
    # both interleavings of the two informs plus their one-step prefixes
    assert len(enumerate_traces(prod, max_len=4)) == 4


def test_json_roundtrip(tmp_path):
    auto = chain("rt", act(Performative.REQUEST, "go()"),
                 knowledge={"b": ("ready",)})
    path = tmp_path / "rt.json"
    path.write_text(json.dumps(auto.to_json()))
    assert load_protocol(str(path)) == auto


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
        auto = load_protocol(f"protocols/{name}.json")
        rep = check_trace_inclusion(auto, max_len=8)
        assert rep.ok, f"{name}: {[(u.failed_at, u.reason) for u in rep.uncovered[:2]]}"


def test_conversation_cid_discipline_in_nested_protocol():
    # clarify and main run over distinct correlation ids by construction;
    # a trace mixing them must still be covered (fresh cid per conversation)
    auto = load_protocol("protocols/contract_net.json")
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
        auto = load_protocol(f"protocols/{name}.json")
        rep = procedural_bound_check(auto)
        assert rep.ok
        assert rep.max_semantic_messages <= rep.state_count


def test_bound_counts_semantic_messages_only():
    auto = chain("one", act(Performative.INFORM, "fact"))
    rep = procedural_bound_check(auto)
    assert rep.runs_executed == 1
    assert rep.max_semantic_messages == 1   # acks and pongs not counted
