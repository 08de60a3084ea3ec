"""Verb semantics: knowledge updates, auto-replies, timers, buffers."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from muacp import agent as agent_module
from muacp import resources, wire
from muacp.agent import (
    Agent,
    BadContent,
    Literal,
    TransitionLabel,
    parse_literal,
)
from muacp.resources import (
    CostModel,
    InfeasibleCharge,
    ResourceBudget,
    ResourceVector,
)
from muacp.wire import CONTENT_ACTION, CONTENT_LITERAL, OptionType, Verb


def pair():
    return Agent(1), Agent(2)


# -- literals -----------------------------------------------------------------


def test_parse_literal_signs():
    assert parse_literal("p(a)") == Literal("p(a)", True)
    assert parse_literal("!p(a)") == Literal("p(a)", False)
    assert parse_literal("¬p(a)") == Literal("p(a)", False)
    assert parse_literal("!p(a)").text() == "!p(a)"
    with pytest.raises(BadContent):
        parse_literal("")
    with pytest.raises(BadContent):
        parse_literal("!")


@given(st.from_regex(r"[a-z][a-z0-9_()]{0,12}", fullmatch=True),
       st.booleans())
def test_literal_text_roundtrip(atom, positive):
    lit = Literal(atom, positive)
    assert parse_literal(lit.text()) == lit
    assert lit == (atom, positive)
    assert parse_literal("!" + lit.text()) == (atom, not positive)


def test_literals_round_trip_through_tell_and_ask():
    a, b = pair()
    for text in ("p(a)", "!q(b)"):
        b.receive(a.make_tell(text), sender=1, now=0)
    assert b.kb == {"p(a)": True, "q(b)": False}
    for text, want in (("p(a)", b"p(a)"), ("q(b)", b"!q(b)")):
        ((_, reply),) = b.receive(a.make_ask(text), sender=1, now=1)
        assert reply.payload == want


# -- ping ------------------------------------------------------------------


def test_ping_earns_pong_with_matching_cid():
    a, b = pair()
    ping = a.make_ping()
    ((to, pong),) = b.receive(ping, sender=1, now=0)
    assert to == 1
    assert pong.header.verb == Verb.PING
    assert pong.header.is_response
    assert pong.header.correlation_id == ping.header.correlation_id


def test_pong_never_answered():
    a, b = pair()
    ((_, pong),) = b.receive(a.make_ping(), sender=1, now=0)
    assert a.receive(pong, sender=2, now=1) == []


# -- tell ---------------------------------------------------------------------


def test_tell_literal_enters_kb():
    a, b = pair()
    assert b.receive(a.make_tell("door_open"), sender=1, now=0) == []
    assert b.kb_lookup("door_open") is True


def test_opposite_literal_overwrites():
    # the kb stays a consistent partial assignment
    a, b = pair()
    b.receive(a.make_tell("door_open"), sender=1, now=0)
    b.receive(a.make_tell("!door_open"), sender=1, now=1)
    assert b.kb_lookup("door_open") is False
    assert len(b.kb) == 1


def test_tell_without_content_type_is_opaque():
    a, b = pair()
    raw = a.build(Verb.TELL, payload=b"\xff\xfe")
    assert b.receive(raw, sender=1, now=0) == []
    assert b.kb == {}


# -- ask ----------------------------------------------------------------------


def test_ask_known_literal_answered_positively():
    a, b = pair()
    b.kb_insert_text("temp_ok")
    ((to, m),) = b.receive(a.make_ask("temp_ok"), sender=1, now=0)
    assert (to, m.payload, m.header.is_response) == (1, b"temp_ok", True)


def test_ask_known_false_literal_answered_negatively():
    a, b = pair()
    b.kb_insert_text("!temp_ok")
    ((_, m),) = b.receive(a.make_ask("temp_ok"), sender=1, now=0)
    assert m.payload == b"!temp_ok"


def test_ask_unknown_literal_gets_err_option():
    a, b = pair()
    ((_, m),) = b.receive(a.make_ask("mystery"), sender=1, now=0)
    assert m.header.is_response
    assert m.find(OptionType.ERR).value == b"unknown"
    assert m.payload == b"mystery"


def test_ask_action_executes_and_reports_done():
    a, b = pair()
    ask = a.make_ask("restart(pump)", kind=CONTENT_ACTION)
    ((_, m),) = b.receive(ask, sender=1, now=0)
    assert m.payload == b"done(restart(pump))"
    assert b.kb_lookup("done(restart(pump))") is True


def test_ask_without_content_type_is_left_to_the_application():
    a, b = pair()
    bare = a.build(Verb.ASK, payload=b"whatever")
    assert b.receive(bare, sender=1, now=0) == []


def test_ask_bad_content_type_earns_error_reply():
    a, b = pair()
    msg = a.build(
        Verb.ASK,
        options=(wire.Option(OptionType.CONTENT_TYPE, b"\x07"),),
        payload=b"x",
    )
    ((_, err),) = b.receive(msg, sender=1, now=0)
    assert err.header.is_error and err.header.is_response
    assert err.find(OptionType.ERR) is not None


def test_response_flood_cannot_trigger_error_replies():
    a, b = pair()
    msg = a.build(
        Verb.ASK,
        options=(wire.Option(OptionType.CONTENT_TYPE, b"\x07"),),
        flags=wire.FLAG_RESPONSE,
    )
    assert b.receive(msg, sender=1, now=0) == []


# -- observe / publish -----------------------------------------------------


def test_observe_registers_subscription():
    a, b = pair()
    b.receive(a.make_observe("alerts"), sender=1, now=0)
    assert b.subscriptions == {"alerts": {1}}


def test_publish_one_message_per_subscriber_shared_cid():
    b = Agent(9)
    for peer in (4, 2, 7):
        b.subscriptions.setdefault("alerts", set()).add(peer)
    out = b.publish("alerts", "alert(smoke)")
    assert [to for to, _ in out] == [2, 4, 7]
    cids = {m.header.correlation_id for _, m in out}
    assert len(cids) == 1
    assert all(m.payload == b"alert(smoke)" for _, m in out)


def test_publish_parses_its_literal_once(monkeypatch):
    b = Agent(9)
    b.subscriptions["alerts"] = {2, 4, 7}
    calls = []

    def counting(text):
        calls.append(text)
        return parse_literal(text)

    monkeypatch.setattr(agent_module, "parse_literal", counting)
    out = b.publish("alerts", " !alert(smoke)", cid=5)
    assert calls == [" !alert(smoke)"]
    ref = Agent(9)
    assert [m for _, m in out] == [
        ref.make_tell(" !alert(smoke)", topic="alerts", cid=5)
        for _ in range(3)]
    # an unparseable literal raises only when someone would receive it
    assert b.publish("quiet", "!!") == []
    with pytest.raises(BadContent):
        b.publish("alerts", "!!")


def test_observe_without_topic_is_bad_content():
    a, b = pair()
    ((_, err),) = b.receive(a.build(Verb.OBSERVE), sender=1, now=0)
    assert err.header.is_error


# -- malformed input ----------------------------------------------------------


def test_malformed_bytes_earn_error_ping():
    b = Agent(2)
    ((to, err),) = b.handle_raw(b"\x00\x01", sender=1, now=0)
    assert to == 1
    assert err.header.verb == Verb.PING
    assert err.header.is_error and err.header.is_response
    assert err.find(OptionType.ERR) is not None


def test_wellformed_bytes_handled_via_decode():
    a, b = pair()
    b.kb_insert_text("p")
    ((_, m),) = b.handle_raw(wire.encode(a.make_ask("p")), sender=1, now=0)
    assert m.payload == b"p"


# -- qos-1 acknowledgment and retransmission -----------------------------------


def test_qos1_delivery_acked_when_no_reply_carries_the_cid():
    a, b = pair()
    tell = a.make_tell("fact", qos=1)
    replies = b.receive(tell, sender=1, now=0)
    assert len(replies) == 1
    _, ack = replies[0]
    assert ack.header.verb == Verb.PING and ack.header.is_response
    assert ack.header.correlation_id == tell.header.correlation_id


def test_qos1_ask_not_double_acked():
    # the TELL answer already carries the correlation id
    a, b = pair()
    b.kb_insert_text("p")
    replies = b.receive(a.make_ask("p", qos=1), sender=1, now=0)
    assert len(replies) == 1


def test_qos0_never_acked():
    a, b = pair()
    assert b.receive(a.make_tell("fact", qos=0), sender=1, now=0) == []


def test_retransmit_until_response_arrives():
    a = Agent(1, retransmit_interval=4)
    tell = a.make_tell("fact", qos=1)
    a.send(tell, to=2, now=0)
    assert a.fire_timers(3) == []
    again = a.fire_timers(4)
    assert again == [(2, tell)]
    assert a.fire_timers(8) == [(2, tell)]
    # a response with the same correlation id cancels the cycle
    ack = Agent(2).build(
        Verb.PING, flags=wire.FLAG_RESPONSE, cid=tell.header.correlation_id
    )
    a.receive(ack, sender=2, now=9)
    assert a.fire_timers(50) == []


def test_qos0_send_never_retransmits():
    a = Agent(1)
    a.send(a.make_tell("fact", qos=0), to=2, now=0)
    assert a.retransmits == {}


def test_response_sends_are_not_retransmitted():
    a = Agent(1)
    pong = a.build(Verb.PING, flags=wire.FLAG_RESPONSE, qos=1)
    a.send(pong, to=2, now=0)
    assert a.retransmits == {}


# -- pending queries ---------------------------------------------------------


def test_ask_timeout_recorded_and_retransmit_stopped():
    a = Agent(1, ask_timeout=10)
    ask = a.make_ask("p", qos=1)
    a.send(ask, to=2, now=0)
    assert ask.header.correlation_id in a.pending_asks
    a.fire_timers(10)
    assert a.pending_asks == {}
    assert a.retransmits == {}
    assert a.timeouts == [(ask.header.correlation_id, 2, "p")]


def test_answer_resolves_pending_ask():
    a, b = pair()
    ask = a.make_ask("p", deadline=100)
    a.send(ask, to=2, now=0)
    b.kb_insert_text("p")
    ((_, answer),) = b.receive(ask, sender=1, now=1)
    a.receive(answer, sender=2, now=2)
    assert a.pending_asks == {}
    assert [cid for cid, _ in a.answers] == [ask.header.correlation_id]
    a.fire_timers(200)
    assert a.timeouts == []


def test_deadline_option_overrides_default_timeout():
    a = Agent(1, ask_timeout=1000)
    ask = a.make_ask("p", deadline=7)
    a.send(ask, to=2, now=0)
    assert a.pending_asks[ask.header.correlation_id].deadline == 7


# -- history ring and transient memory ------------------------------------------


MEM_MODEL = CostModel(buffer_per_byte=1, per_byte_bandwidth=1)


def test_history_ring_evicts_and_refunds():
    big = ResourceBudget.full(ResourceVector.of(10**6, 10**6, 10**6, 10**6))
    a = Agent(1, budget=big, model=MEM_MODEL, h_cap=4)
    for t in range(12):
        a.send(a.make_ping(), to=2, now=t)
    assert len(a.history) == 4
    # only the live window is charged: 4 pings of 11 bytes
    assert MEM_MODEL.buffer_per_byte * sum(e.size for e in a.history) == 44
    assert a.budget.spent.memory == 44


def test_memory_cap_blocks_before_overflow():
    from muacp.agent import Infeasible

    cap = ResourceBudget.full(ResourceVector.of(25, 10**6, 10**6, 10**6))
    a = Agent(1, budget=cap, model=MEM_MODEL, h_cap=32)
    a.send(a.make_ping(), to=2, now=0)
    a.send(a.make_ping(), to=2, now=1)
    with pytest.raises(Infeasible):
        a.send(a.make_ping(), to=2, now=2)
    assert a.budget.spent.memory == 22       # failed charge left no trace
    assert a.infeasible_count == 1


def test_small_ring_keeps_memory_flat_forever():
    # charge happens before eviction, so the peak is h_cap + 1 entries
    a = Agent(
        1,
        budget=ResourceBudget.full(ResourceVector.of(66, 10**9, 1, 1)),
        model=CostModel(buffer_per_byte=1, per_byte_bandwidth=1),
        h_cap=5,
    )
    for t in range(200):
        a.send(a.make_ping(), to=2, now=t)
    assert a.model.buffer_per_byte * sum(e.size for e in a.history) == 55


# -- the budget under a fractional model ----------------------------------------

FRACTIONAL = CostModel(per_byte_bandwidth="2/3", per_message_cpu="5/7",
                       per_byte_cpu="1/11", buffer_per_byte="1/3")


def _snapshot(a):
    return a.budget, list(a.history)


def _refusal_text(budget, model, size):
    """The reference text: what `ResourceBudget.charge` raises."""
    with pytest.raises(InfeasibleCharge) as e:
        budget.charge(model.cost_of_size(size))
    return str(e.value)


def _short_of_cpu():
    # cpu "12/5" pays for one 11-byte ping (5/7 + 11/11) but not a second
    limit = ResourceVector.of(1000, 1000, "12/5", 1)
    a = Agent(1, budget=ResourceBudget.full(limit), model=FRACTIONAL,
              h_cap=1)
    a.send(a.make_ping(), to=2, now=0)
    return a


def test_refused_send_and_receive_leave_the_agent_unchanged():
    from muacp.agent import Infeasible

    a = _short_of_cpu()
    before = _snapshot(a)
    want = _refusal_text(a.budget, FRACTIONAL, 11)
    with pytest.raises(Infeasible) as e:
        a.send(a.make_ping(), to=2, now=1)
    assert str(e.value) == want
    assert _snapshot(a) == before
    with pytest.raises(Infeasible) as e:
        a.receive(Agent(2).make_ping(), 2, now=2)
    assert str(e.value) == want
    assert _snapshot(a) == before
    assert a.infeasible_count == 2


def test_refused_send_and_receive_build_no_fraction_or_vector(monkeypatch):
    from muacp.agent import Infeasible

    a = _short_of_cpu()
    ping = Agent(2).make_ping()
    want = _refusal_text(a.budget, FRACTIONAL, ping.wire_size)

    def forbidden(*args, **kwargs):
        raise AssertionError("a refusal built a Fraction or a vector")

    for owner, name in ((resources, "Fraction"),
                        (ResourceVector, "__post_init__"),
                        (resources.BudgetLedger, "_vector"),
                        (CostModel, "cost_of_size")):
        monkeypatch.setattr(owner, name, forbidden)
    texts = []
    for refused in (lambda: a.send(a.make_ping(), to=2, now=1),
                    lambda: a.receive(ping, 2, now=2)):
        with pytest.raises(Infeasible) as e:
            refused()
        texts.append(str(e.value))
    assert texts == [want, want] and a.infeasible_count == 2


def test_budget_is_the_exact_fold_of_every_transition():
    limit = ResourceVector.of(1000, 10**6, 10**6, 1)
    a = Agent(1, budget=ResourceBudget.full(limit), model=FRACTIONAL,
              h_cap=2)
    tell, ping, ask = a.make_tell("p"), Agent(2).make_ping(), a.make_ask("p")
    cost = FRACTIONAL.cost_of
    # after each transition the budget is the exact reference fold
    expected = ResourceBudget.full(limit).charge(cost(tell))
    a.send(tell, to=2, now=0)
    assert a.budget == expected
    assert a.budget.spent.cpu == Fraction(5, 7) + Fraction(
        tell.wire_size, 11)
    expected = expected.charge(cost(ping))
    a.receive(ping, 2, now=1)
    assert a.budget == expected
    (evicted,) = [e for e in a.history if e.time == 0]
    expected = expected.charge(cost(ask)).refund(
        FRACTIONAL.buffer_memory(evicted.size))
    a.send(ask, to=2, now=3)                 # evicts the tell
    assert evicted not in a.history and a.budget == expected


@pytest.mark.parametrize("model", [CostModel(), MEM_MODEL, FRACTIONAL])
def test_charges_build_no_vectors_without_a_journal(model, monkeypatch):
    built = []
    post_init = ResourceVector.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    a, b = Agent(1, model=model, h_cap=2), Agent(2, model=model, h_cap=2)
    monkeypatch.setattr(ResourceVector, "__post_init__", counting)
    for t in range(10):
        ask = a.send(a.make_ask("p"), 2, t).message
        for to, reply in b.receive(ask, 1, t):
            a.receive(b.send(reply, to, t).message, 2, t)
    assert len(a.history) == 2 and built == []
    a.budget                                 # reading it builds vectors
    assert built


# -- labels -------------------------------------------------------------------


def test_send_produces_transition_label():
    a = Agent(1)
    label = a.send(a.make_ping(), to=2, now=0)
    assert isinstance(label, TransitionLabel)
    assert (label.sender, label.receiver) == (1, 2)


def test_self_loop_labels_rejected():
    with pytest.raises(ValueError):
        TransitionLabel(3, 3, wire.message(Verb.PING))


def test_labels_and_history_entries_equal_their_plain_tuples():
    a = Agent(1)
    msg = a.make_ping()
    label = a.send(msg, to=2, now=4)
    assert label == (1, 2, msg) and hash(label) == hash((1, 2, msg))
    assert label == TransitionLabel(sender=1, receiver=2, message=msg)
    sender, receiver, message = label
    assert (sender, receiver, message) == (1, 2, msg)
    assert list(a.history) == [(4, "out", msg.wire_size)]


def test_fresh_cids_do_not_repeat_quickly():
    a = Agent(5)
    seen = {a.fresh_cid() for _ in range(1000)}
    assert len(seen) == 1000
