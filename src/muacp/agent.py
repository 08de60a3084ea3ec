"""Per-agent message handling semantics.

An agent holds a knowledge base of ground literals, a bounded history
ring, pending queries with deadlines, reliable-delivery timers, and a
resource budget.  Every send and receive is charged against the budget
before any state changes; an infeasible transition raises and leaves
the agent exactly as it was.

Processing rules for inbound messages:

  PING  (no response flag)  -> reply PING with the response flag set
  TELL  content-type=literal -> insert the literal into the kb
  ASK   content-type=literal -> answer from the kb (TELL response),
                                or TELL response + ERR "unknown"
  ASK   content-type=action  -> perform abstractly, assert done(a),
                                reply TELL "done(a)" response
  ASK   with no content-type -> application-level, no automatic reply
  OBSERVE with topic         -> register (topic, sender) subscription
  malformed input            -> reply PING with error flag + ERR detail
                                (never in reply to a response, so two
                                 broken peers cannot loop)
  non-UTF-8 payload or topic -> malformed input, the same error reply;
                                so is an action too long to answer

Any QoS-1 inbound message that did not already earn a response-flagged
reply gets a bare acknowledgement (PING response, same correlation id).
A response-flagged message with a known correlation id cancels the
retransmission timer and resolves the pending query for that id.

`Literal`, `TransitionLabel` and `HistoryEntry` are immutable tuples
that equal their plain tuples: `TransitionLabel(1, 2, m) == (1, 2, m)`.
A label still refuses a sender equal to its receiver.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

from . import wire
from .resources import (
    BudgetLedger,
    CostModel,
    InfeasibleCharge,
    ResourceBudget,
    UNBOUNDED,
)
from .wire import (
    CONTENT_ACTION,
    CONTENT_LITERAL,
    FLAG_ERROR,
    FLAG_RESPONSE,
    Message,
    Option,
    OptionType,
    Verb,
)

DEFAULT_HISTORY_CAP = 32
DEFAULT_COST_MODEL = CostModel()

# Read once here: an enum member or a built option costs far more to
# look up or make than a module global on the per-message path.
_PING, _TELL, _ASK, _OBSERVE = Verb
_CONTENT_TYPE, _DEADLINE, _TOPIC = (
    OptionType.CONTENT_TYPE, OptionType.DEADLINE, OptionType.TOPIC)
_LITERAL_BYTES = bytes((CONTENT_LITERAL,))
_ACTION_BYTES = bytes((CONTENT_ACTION,))
CT_LITERAL = wire.opt_content_type(CONTENT_LITERAL)
CT_ACTION = wire.opt_content_type(CONTENT_ACTION)
_new = tuple.__new__


class AgentError(Exception):
    pass


class Infeasible(AgentError):
    """The budget cannot pay for this transition; nothing changed."""


class BadContent(AgentError):
    """Structurally valid message whose content cannot be interpreted."""


class Literal(NamedTuple):
    """A ground literal: an atom with a sign.  Atom text is opaque.

    An immutable tuple that equals its plain tuple:
    `Literal("p", True) == ("p", True)`."""

    atom: str
    positive: bool = True

    def text(self) -> str:
        return self.atom if self.positive else "!" + self.atom


def done(action: str) -> Literal:
    """The fact an agent asserts, and answers, for an action ask."""
    return Literal(f"done({action})")


def parse_literal(text: str) -> Literal:
    text = text.strip()
    positive = True
    while text[:1] in ("!", "¬"):
        positive = not positive
        text = text[1:].strip()
    if not text:
        raise BadContent("empty literal")
    return Literal(text, positive)


class TransitionLabel(NamedTuple("TransitionLabel", [
    ("sender", int), ("receiver", int), ("message", Message),
])):
    """One directed network transmission, an immutable
    `(sender, receiver, message)` tuple that equals its plain tuple.
    Self-messages never appear as labels; agents handle those locally."""

    __slots__ = ()

    def __new__(cls, sender: int, receiver: int, message: Message):
        if sender == receiver:
            raise ValueError("label sender equals receiver")
        return _new(cls, (sender, receiver, message))


@dataclass
class PendingAsk:
    peer: int
    query: str
    deadline: int


@dataclass
class Retransmit:
    to: int
    message: Message
    next_at: int


class HistoryEntry(NamedTuple):
    """One buffered transmission, an immutable tuple."""

    time: int
    direction: str  # "in" | "out"
    size: int


class Agent:
    """State and processing rules for one agent."""

    def __init__(
        self,
        agent_id: int,
        *,
        budget: ResourceBudget = UNBOUNDED,
        model: CostModel | None = None,
        h_cap: int = DEFAULT_HISTORY_CAP,
        ask_timeout: int = 50,
        retransmit_interval: int = 8,
    ):
        if h_cap < 1:
            raise ValueError("history capacity must be at least 1")
        self.id = agent_id
        self.model = model if model is not None else DEFAULT_COST_MODEL
        self._ledger = BudgetLedger(budget, self.model)
        self.h_cap = h_cap
        self.ask_timeout = ask_timeout
        self.retransmit_interval = retransmit_interval

        self.kb: dict[str, bool] = {}
        self.history: deque[HistoryEntry] = deque()
        self.pending_asks: dict[int, PendingAsk] = {}
        self.retransmits: dict[int, Retransmit] = {}
        self.subscriptions: dict[str, set[int]] = {}
        # Inboxes the embedding empties once read: expired asks as
        # (cid, peer, query), which `BasicNode.on_tick` empties, and
        # resolved asks.
        self.timeouts: list[tuple[int, int, str]] = []
        self.answers: list[tuple[int, Message]] = []
        self.infeasible_count = 0

        # Each message's id, which is also its sequence number.
        self._next_id = 1
        self._next_cid = (agent_id & 0xFF) << 8 | 1

    # -- knowledge base ------------------------------------------------

    def kb_insert(self, lit: Literal) -> None:
        """Insert, overwriting any opposite-sign entry for the atom, so
        the kb is always a consistent partial truth assignment."""
        self.kb[lit.atom] = lit.positive

    def kb_insert_text(self, text: str) -> None:
        self.kb_insert(parse_literal(text))

    def kb_lookup(self, atom: str) -> bool | None:
        return self.kb.get(atom)

    # -- message builders ----------------------------------------------

    def fresh_cid(self) -> int:
        cid = self._next_cid & 0xFFFF
        self._next_cid += 1
        return cid

    def build(
        self,
        verb: Verb,
        *,
        options: tuple[Option, ...] | list[Option] = (),
        payload: bytes = b"",
        qos: int = 0,
        flags: int = 0,
        cid: int | None = None,
    ) -> Message:
        if cid is None:
            cid = self.fresh_cid()
        mid = self._next_id & 0xFFFF
        self._next_id += 1
        return wire.message(
            verb,
            qos=qos,
            flags=flags,
            message_id=mid,
            sequence=mid,
            correlation_id=cid,
            options=options,
            payload=payload,
        )

    def restamp(self, msg: Message) -> Message:
        """A template message under this agent's next message id."""
        h = msg.header
        return self.build(h.verb, options=msg.options, payload=msg.payload,
                          qos=h.qos, flags=h.flags, cid=h.correlation_id)

    def make_ping(self, *, cid: int | None = None, qos: int = 0) -> Message:
        return self.build(_PING, qos=qos, cid=cid)

    def make_tell(
        self,
        literal_text: str,
        *,
        cid: int | None = None,
        qos: int = 0,
        response: bool = False,
        topic: str | None = None,
    ) -> Message:
        return self._tell(parse_literal(literal_text), cid, qos, response,
                          topic)

    def _tell(self, lit: Literal, cid: int | None, qos: int = 0,
              response: bool = False, topic: str | None = None) -> Message:
        """`make_tell` of a literal already parsed."""
        opts = (CT_LITERAL,) if topic is None else (
            CT_LITERAL, wire.opt_topic(topic))
        return self.build(_TELL, options=opts,
                          payload=lit.text().encode("utf-8"), qos=qos,
                          flags=FLAG_RESPONSE if response else 0, cid=cid)

    def make_ask(
        self,
        content: str,
        *,
        kind: int = CONTENT_LITERAL,
        cid: int | None = None,
        qos: int = 0,
        deadline: int | None = None,
    ) -> Message:
        ct = (CT_LITERAL if kind == CONTENT_LITERAL
              else CT_ACTION if kind == CONTENT_ACTION
              else wire.opt_content_type(kind))
        opts = (ct,) if deadline is None else (
            ct, wire.opt_deadline(deadline))
        return self.build(
            _ASK,
            options=opts,
            payload=content.encode("utf-8"),
            qos=qos,
            cid=cid,
        )

    def make_observe(
        self, topic: str, *, cid: int | None = None, qos: int = 0
    ) -> Message:
        return self.build(
            _OBSERVE, options=(wire.opt_topic(topic),), qos=qos, cid=cid
        )

    # -- resource accounting --------------------------------------------

    @property
    def budget(self) -> ResourceBudget:
        """The budget's limit and what remains of it, built on demand."""
        return self._ledger.budget

    def _charge(self, msg: Message) -> None:
        try:
            self._ledger.charge(msg.wire_size)
        except InfeasibleCharge as e:
            self.infeasible_count += 1
            # str() of the Infeasible is str(e), built only when read.
            raise Infeasible(e) from e

    def _remember(self, now: int, direction: str, size: int) -> None:
        history = self.history
        # tuple.__new__ builds the same entry without a Python-level call.
        history.append(_new(HistoryEntry, (now, direction, size)))
        # One entry in, so at most one out: the ring is never over cap.
        if len(history) > self.h_cap:
            self._ledger.refund(history.popleft().size)

    # -- transitions -----------------------------------------------------

    def send(
        self, msg: Message, to: int, now: int, *, fresh: bool = True
    ) -> TransitionLabel:
        """Charge for and emit one message.  Raises Infeasible (with no
        state change) if the budget cannot cover it.

        fresh=False marks a retransmission: the bytes are charged and
        buffered again but timers are not re-registered.
        """
        if to == self.id:
            raise ValueError("use local handling for self-addressed messages")
        self._charge(msg)
        self._remember(now, "out", msg.wire_size)
        h = msg.header
        if fresh:
            if h.qos >= 1 and not h.flags & FLAG_RESPONSE:
                self.retransmits[h.correlation_id] = Retransmit(
                    to=to,
                    message=msg,
                    next_at=now + self.retransmit_interval,
                )
            if h.verb == _ASK and msg.find(_CONTENT_TYPE) is not None:
                dl = msg.find(_DEADLINE)
                timeout = (
                    wire.decode_u32(dl.value) if dl else self.ask_timeout
                )
                self.pending_asks[h.correlation_id] = PendingAsk(
                    peer=to,
                    query=msg.payload.decode("utf-8", "replace"),
                    deadline=now + timeout,
                )
        # Built unchecked: `to != self.id` was checked above.
        return _new(TransitionLabel, (self.id, to, msg))

    def receive(
        self, msg: Message, sender: int, now: int
    ) -> list[tuple[int, Message]]:
        """Apply one inbound message.  Returns reply messages as
        (destination, message) pairs; the caller is responsible for
        sending them (each reply is charged at its own send)."""
        self._charge(msg)
        self._remember(now, "in", msg.wire_size)
        h = msg.header
        response = h.flags & FLAG_RESPONSE
        cid = h.correlation_id

        if response:
            self.retransmits.pop(cid, None)
            if cid in self.pending_asks:
                del self.pending_asks[cid]
                self.answers.append((cid, msg))

        try:
            replies = self._apply(msg, sender, now)
        except (BadContent, UnicodeDecodeError, wire.WireError) as e:
            # Peer text that is not UTF-8, and content whose answer the
            # codec cannot carry, are bad content too.
            replies = [] if response else [
                (sender, self._error_reply(str(e), cid))]

        if (
            h.qos >= 1
            and not response
            and not any(
                r.header.flags & FLAG_RESPONSE
                and r.header.correlation_id == cid
                for _, r in replies
            )
        ):
            replies.append(
                (sender, self.build(_PING, flags=FLAG_RESPONSE, cid=cid))
            )
        return replies

    def handle_raw(
        self, data: bytes, sender: int, now: int
    ) -> list[tuple[int, Message]]:
        """Decode-and-receive; malformed bytes earn an error reply
        instead of an exception (budget permitting)."""
        try:
            msg = wire.decode(data)
        except wire.WireError as e:
            return [(sender, self._error_reply(str(e)))]
        return self.receive(msg, sender, now)

    def _apply(
        self, msg: Message, sender: int, now: int
    ) -> list[tuple[int, Message]]:
        h = msg.header
        verb = h.verb

        if verb == _PING:
            if h.flags & (FLAG_RESPONSE | FLAG_ERROR):
                return []
            return [
                (sender, self.build(
                    _PING, flags=FLAG_RESPONSE, cid=h.correlation_id))
            ]

        if verb == _TELL:
            if msg.find(_CONTENT_TYPE) == CT_LITERAL:
                self.kb_insert(parse_literal(msg.payload.decode()))
            return []

        if verb == _ASK:
            ct = msg.find(_CONTENT_TYPE)
            if ct is None:
                # Application-level request (consensus, negotiation);
                # the embedding decides the reply.
                return []
            if ct.value == _LITERAL_BYTES:
                query = parse_literal(msg.payload.decode())
                truth = self.kb_lookup(query.atom)
                if truth is None:
                    reply = self.build(
                        _TELL,
                        options=(wire.opt_err("unknown"),),
                        payload=msg.payload,
                        flags=FLAG_RESPONSE,
                        cid=h.correlation_id,
                    )
                else:
                    reply = self._tell(Literal(query.atom, truth),
                                       h.correlation_id, response=True)
                return [(sender, reply)]
            if ct.value == _ACTION_BYTES:
                action = msg.payload.decode()
                if not action:
                    raise BadContent("empty action")
                fact = done(action)
                reply = self._tell(fact, h.correlation_id, response=True)
                self.kb_insert(fact)
                return [(sender, reply)]
            raise BadContent(f"unknown content type {ct.value.hex()}")

        if verb == _OBSERVE:
            topic_opt = msg.find(_TOPIC)
            if topic_opt is None:
                raise BadContent("observe without a topic")
            topic = topic_opt.value.decode()
            self.subscriptions.setdefault(topic, set()).add(sender)
            return []

        raise BadContent(f"verb {verb}")  # unreachable; enum is total

    def _error_reply(self, detail: str, cid: int | None = None) -> Message:
        """The error reply to a message with correlation id `cid`, or
        under a fresh one when the message could not be decoded."""
        return self.build(
            _PING,
            options=(wire.opt_err(detail[:64]),),
            flags=FLAG_RESPONSE | FLAG_ERROR,
            cid=cid,
        )

    # -- timers and publication ------------------------------------------

    def fire_timers(self, now: int) -> list[tuple[int, Message]]:
        """Expire overdue queries and collect due retransmissions.

        Returns (destination, message) pairs to resend; expired queries
        are appended to the self.timeouts inbox rather than producing
        traffic.
        """
        if not self.pending_asks and not self.retransmits:
            return []
        for cid in sorted(self.pending_asks):
            pa = self.pending_asks[cid]
            if pa.deadline <= now:
                del self.pending_asks[cid]
                self.retransmits.pop(cid, None)
                self.timeouts.append((cid, pa.peer, pa.query))
        out: list[tuple[int, Message]] = []
        for cid in sorted(self.retransmits):
            rt = self.retransmits[cid]
            if rt.next_at <= now:
                rt.next_at = now + self.retransmit_interval
                out.append((rt.to, rt.message))
        return out

    def next_timer(self) -> int | None:
        """The tick from which fire_timers has work: the earliest
        pending-ask deadline or retransmission, or None without timers."""
        at = None
        if self.pending_asks:
            at = min([pa.deadline for pa in self.pending_asks.values()])
        if self.retransmits:
            rt = min([rt.next_at for rt in self.retransmits.values()])
            if at is None or rt < at:
                at = rt
        return at

    def publish(
        self,
        topic: str,
        literal_text: str,
        *,
        qos: int = 0,
        cid: int | None = None,
    ) -> list[tuple[int, Message]]:
        """Build exactly one notification per distinct subscriber of the
        topic, in ascending subscriber order.  All notifications of one
        publication share a correlation id."""
        subs = sorted(self.subscriptions.get(topic, ()))
        if cid is None:
            cid = self.fresh_cid()
        if not subs:
            return []
        lit = parse_literal(literal_text)  # once, and only for a subscriber
        return [(peer, self._tell(lit, cid, qos, topic=topic))
                for peer in subs]
