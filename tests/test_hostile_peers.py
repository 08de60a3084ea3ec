"""Hostile peers: no frame a peer can send, well formed or not, crashes
the agent that receives it or the network it runs in."""

from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from muacp import fipa, wire
from muacp.agent import Agent, BadContent, TransitionLabel, parse_literal
from muacp.consensus import DecreeConfig, Participant
from muacp.simnet import BasicNode, Network, SimConfig
from muacp.wire import Option, OptionType, Verb
from muacp.workloads import ScaleConfig, build_scale

ROOT = Path(__file__).resolve().parent.parent
VECTORS = {p.stem: bytes.fromhex(p.read_text().strip())
           for p in sorted((ROOT / "vectors").glob("*.hex"))}

CT, TOPIC = OptionType.CONTENT_TYPE, OptionType.TOPIC
CFP = Option(OptionType.PROC, bytes((wire.PROC_CFP,)))


def _network(kind: str) -> Network:
    if kind == "basic":
        return Network(SimConfig(seed=0),
                       [BasicNode(Agent(i)) for i in range(3)])
    if kind == "participant":
        decree = DecreeConfig(n=3)
        return Network(decree.sim,
                       [Participant(Agent(i), decree) for i in range(3)])
    if kind == "scale":
        net, _ = build_scale(ScaleConfig(n=12, until=80, drain=20))
        return net
    observed: list = []
    return Network(SimConfig(seed=0, gst=0, delta=1),
                   [fipa._RecordingNode(Agent(i), observed)
                    for i in range(3)], events=False)


_option = st.one_of(
    st.builds(Option, st.sampled_from(list(OptionType)),
              st.binary(max_size=5)),
    st.builds(Option, st.sampled_from([OptionType.CID, OptionType.CONV,
                                       OptionType.DEADLINE]),
              st.binary(min_size=4, max_size=4)),
    st.builds(Option, st.just(OptionType.PROC),
              st.integers(0, 9).map(lambda b: bytes((b,)))),
    st.builds(Option, st.just(CT), st.sampled_from([b"\x01", b"\x02"])),
    st.builds(Option, st.integers(0, 255), st.binary(max_size=8)),
)
_payload = st.one_of(
    st.binary(max_size=12),
    st.sampled_from([b"task_1_3", b"abc", b"p(a)", b"!", b"  ", b"\xff"]),
    # near the payload limit, where an answer may no longer fit
    st.sampled_from([b"a", b"\xff"]).map(
        lambda b: b * (wire.PAYLOAD_LIMIT - 4)),
)
messages = st.builds(
    wire.message,
    st.sampled_from(list(Verb)),
    qos=st.integers(0, 3),
    flags=st.integers(0, 255) | st.just(0),
    correlation_id=st.integers(0, 0xFFFF),
    options=st.lists(_option, max_size=4),
    payload=_payload,
)


def _is_text(data: bytes) -> bool:
    try:
        data.decode()
    except UnicodeDecodeError:
        return False
    return True


def _is_literal(data: bytes) -> bool:
    try:
        parse_literal(data.decode())
    except (UnicodeDecodeError, BadContent):
        return False
    return True


def _bad_content(m: wire.Message) -> bool:
    """Whether the verb rules cannot read the content of `m`: the oracle
    for the one error reply it must earn."""
    ct = m.find(CT)
    if m.verb == Verb.OBSERVE:
        topic = m.find(TOPIC)
        return topic is None or not _is_text(topic.value)
    if m.verb == Verb.TELL:
        return ct == (CT, b"\x01") and not _is_literal(m.payload)
    if m.verb != Verb.ASK or ct is None:
        return False
    if ct.value == b"\x01":
        return not _is_literal(m.payload)
    if ct.value == b"\x02":
        return (not m.payload or not _is_text(m.payload)
                or len(m.payload) > wire.PAYLOAD_LIMIT - len("done()"))
    return True


def _action(payload: bytes) -> wire.Message:
    return wire.message(Verb.ASK, options=(Option(CT, b"\x02"),),
                        payload=payload)


def _cfp(payload: bytes) -> wire.Message:
    return wire.message(Verb.ASK, qos=1, options=(CFP, wire.opt_cid(7)),
                        payload=payload)


_OBSERVE_FF = wire.message(Verb.OBSERVE, options=(Option(TOPIC, b"\xff"),))
_ASK_ACTION_FF = _action(b"\xff")
_CFP_ABC = _cfp(b"abc")
# Node 3 refuses round 2 and echoes the task, three times as long once
# each 0xff byte is read as U+FFFD.
_CFP_INFLATING = _cfp(b"\xff" * 30_000 + b"_2")
_LONG = b"a" * (wire.PAYLOAD_LIMIT - 4)   # done(...) of it cannot fit
_ASK_ACTION_LONG = _action(_LONG)
_ACCEPT_LONG = wire.message(Verb.TELL, options=(
    Option(OptionType.PROC, bytes((wire.PROC_ACCEPT_PROPOSAL,))),
    wire.opt_cid(7)), payload=_LONG)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["basic", "participant", "scale", "recording"]),
       frames=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9),
                                 messages), min_size=1, max_size=6))
@example(kind="basic", frames=[(0, 1, _OBSERVE_FF)])
@example(kind="participant", frames=[(1, 1, _ASK_ACTION_FF)])
@example(kind="scale", frames=[(3, 2, _CFP_ABC)])
@example(kind="recording", frames=[(2, 1, _ASK_ACTION_FF)])
@example(kind="basic", frames=[(0, 1, _ASK_ACTION_LONG)])
@example(kind="scale", frames=[(3, 2, _CFP_INFLATING), (3, 2, _ACCEPT_LONG)])
def test_no_peer_frame_escapes_a_node_or_the_network(kind, frames):
    net = _network(kind)
    n = len(net.nodes)
    for receiver, hop, msg in frames:
        net.step()
        receiver %= n
        sender = (receiver + 1 + hop % (n - 1)) % n
        label = TransitionLabel(sender, receiver, msg)
        net.nodes[receiver].on_deliver(net, label, net.now)
        replies = Agent(receiver).receive(msg, sender, net.now)
        if _bad_content(msg) and not msg.header.is_response:
            ((to, reply),) = replies
            assert to == sender and reply.has(OptionType.ERR)
    for _ in range(10):
        net.step()


def _mutate(data: bytes, edits) -> bytes:
    data = bytearray(data)
    for pos, byte in edits:
        if data:
            data[pos % len(data)] = byte
    return bytes(data)


# ask_full with its content type made "action" and its last byte 0xff
_ASK_FULL_ACTION_FF = _mutate(VECTORS["ask_full"], [(12, 2), (-1, 0xFF)])


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.binary(max_size=40),
    st.builds(_mutate, st.sampled_from(sorted(VECTORS.values())),
              st.lists(st.tuples(st.integers(-64, 64), st.integers(0, 255)),
                       max_size=4)),
))
@example(_ASK_FULL_ACTION_FF)
@example(wire.encode(_OBSERVE_FF))
def test_handle_raw_answers_any_bytes_without_raising(data):
    replies = Agent(0).handle_raw(data, sender=1, now=0)
    assert isinstance(replies, list)
    for to, reply in replies:
        assert to == 1 and isinstance(reply, wire.Message)
