"""FIPA ACL performatives mapped onto the four-verb core.

Thirteen performatives are supported.  `SHAPES` is the one table of
their wire forms: each row names the verb, the header flags and where
the content rides.  Five performatives are structural; the other eight
are procedural and ride a base verb with a PROC option carrying the
performative code and a CID option binding the message to its
conversation:

    INFORM(s,r,phi)      -> TELL  with literal content phi
    REQUEST(s,r,alpha)   -> ASK   with action content alpha
    QUERY_IF(s,r,phi)    -> ASK   with literal content phi
    SUBSCRIBE(s,r,t)     -> OBSERVE with topic t
    NOT_UNDERSTOOD(s,r,m)-> PING  with error flag and ERR detail m
    procedural f         -> base verb + PROC(code f) + CID(cid)

The PROC codes are the `wire.PROC_*` constants, which this table reads.
Traffic that carries them, such as the contract-net rounds in
`workloads`, takes them from `wire` and never loads this module:
`fipa` and `workloads` are siblings over `simnet`.

`translate` builds an action's one message from its row, and `project`
reads a delivered message back through the same table.  There are no
reply templates: a responder's answer (TELL done(alpha) to a REQUEST)
is whatever its `Agent` sends.

Conversation protocols are finite automata over performative actions.
A protocol file is the JSON form of `ConversationAutomaton`, read by
the typed reader in `schema.py`: each transition is an action's fields
plus "from" and "to".  A protocol that loads can run: `validate`
translates every action once, so the wire's own limits apply, and has
a probe agent build what an agent would from it (its starting
knowledge, a published INFORM, the done(...) reply to a REQUEST).  The
inclusion checker executes each automaton trace against real agents on
a lossless simulated network: an action is matched against messages
the agents already produced on their own (replies the verb semantics
generates), and only unmatched actions are injected through the
translation.  A trace is covered when every action appears, in order,
with consistent conversation ids.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import NamedTuple

from . import wire
from .agent import Agent, BadContent, done
from .schema import Config, path_key
from .simnet import BasicNode, Network, SimConfig
from .wire import (
    CONTENT_ACTION,
    CONTENT_LITERAL,
    FLAG_ERROR,
    Message,
    Option,
    OptionType,
    Verb,
)


class Performative(enum.Enum):
    INFORM = "inform"
    REQUEST = "request"
    QUERY_IF = "query-if"
    SUBSCRIBE = "subscribe"
    NOT_UNDERSTOOD = "not-understood"
    AGREE = "agree"
    REFUSE = "refuse"
    CFP = "cfp"
    PROPOSE = "propose"
    ACCEPT_PROPOSAL = "accept-proposal"
    REJECT_PROPOSAL = "reject-proposal"
    FORWARD = "forward"
    PROXY = "proxy"


class Shape(NamedTuple):
    """One performative's wire form.  Its content rides in exactly one
    of three places: a payload of `content_type`, the value of a
    `carrier` option over an empty payload, or a payload with PROC
    (`proc`) and CID options."""

    verb: Verb
    flags: int = 0
    content_type: int | None = None
    carrier: OptionType | None = None
    proc: int | None = None


#: The wire form of every performative.  Procedural solicitations ride
#: ASK, procedural assertions ride TELL.
SHAPES: dict[Performative, Shape] = {
    Performative.INFORM: Shape(Verb.TELL, content_type=CONTENT_LITERAL),
    Performative.REQUEST: Shape(Verb.ASK, content_type=CONTENT_ACTION),
    Performative.QUERY_IF: Shape(Verb.ASK, content_type=CONTENT_LITERAL),
    Performative.SUBSCRIBE: Shape(Verb.OBSERVE, carrier=OptionType.TOPIC),
    Performative.NOT_UNDERSTOOD: Shape(
        Verb.PING, FLAG_ERROR, carrier=OptionType.ERR),
    Performative.AGREE: Shape(Verb.TELL, proc=wire.PROC_AGREE),
    Performative.REFUSE: Shape(Verb.TELL, proc=wire.PROC_REFUSE),
    Performative.CFP: Shape(Verb.ASK, proc=wire.PROC_CFP),
    Performative.PROPOSE: Shape(Verb.TELL, proc=wire.PROC_PROPOSE),
    Performative.ACCEPT_PROPOSAL: Shape(
        Verb.TELL, proc=wire.PROC_ACCEPT_PROPOSAL),
    Performative.REJECT_PROPOSAL: Shape(
        Verb.TELL, proc=wire.PROC_REJECT_PROPOSAL),
    Performative.FORWARD: Shape(Verb.TELL, proc=wire.PROC_FORWARD),
    Performative.PROXY: Shape(Verb.ASK, proc=wire.PROC_PROXY),
}

#: Procedural performatives and their one-byte PROC codes.
PROC_CODES: dict[Performative, int] = {
    p: s.proc for p, s in SHAPES.items() if s.proc is not None}

# SHAPES read backwards, for `project`.
_BY_PROC = {code: p for p, code in PROC_CODES.items()}
_BY_CARRIER = {s.verb: p for p, s in SHAPES.items() if s.carrier is not None}
_BY_CONTENT_TYPE = {
    (s.verb, bytes((s.content_type,))): p
    for p, s in SHAPES.items() if s.content_type is not None
}


class FipaError(ValueError):
    pass


class TooLarge(FipaError):
    """Trace enumeration exceeded its explosion cap."""


@dataclass(frozen=True)
class PerformativeAction:
    """One step of a conversation: who says what to whom."""

    performative: Performative
    sender: str
    receiver: str
    content: str
    conversation: str = "main"
    topic: str | None = None

    def __post_init__(self) -> None:
        if self.sender == self.receiver:
            raise FipaError("action sender equals receiver")


@dataclass(frozen=True, kw_only=True)
class Edge(PerformativeAction):
    """A transition: the action taken in state `frm` that leads to `to`."""

    frm: str = field(metadata={"json": "from"})
    to: str


def content_of(action: PerformativeAction) -> str:
    """The text an action's message carries: a SUBSCRIBE's topic, when
    it names one, else the action's content."""
    if (action.performative is Performative.SUBSCRIBE
            and action.topic is not None):
        return action.topic
    return action.content


def translate(action: PerformativeAction, cid: int) -> Message:
    """The one wire message of an action, built from its row of SHAPES.

    The header correlation field holds `cid & 0xFFFF`; a procedural
    performative's CID option holds all of cid.
    """
    shape = SHAPES[action.performative]
    payload = content_of(action).encode("utf-8")
    if shape.carrier is not None:
        options, payload = (Option(shape.carrier, payload),), b""
    elif shape.proc is not None:
        options = (Option(OptionType.PROC, bytes((shape.proc,))),
                   wire.opt_cid(cid))
    else:
        options = (wire.opt_content_type(shape.content_type),)
    return wire.message(shape.verb, flags=shape.flags,
                        correlation_id=cid & 0xFFFF, options=options,
                        payload=payload)


@dataclass(frozen=True)
class ProjectedEvent:
    """A delivered message lifted back to the performative level."""

    tag: Performative
    content: str
    sender: int
    receiver: int
    cid: int
    tick: int


def _performative_of(msg: Message) -> tuple[Performative, bytes] | None:
    """The performative whose SHAPES row a message fits, and the
    content it carries, or None."""
    h = msg.header
    proc = msg.find(OptionType.PROC)
    if proc is not None and len(proc.value) == 1 and proc.value[0] in _BY_PROC:
        return _BY_PROC[proc.value[0]], msg.payload
    p = _BY_CARRIER.get(h.verb)
    if p is not None:
        shape = SHAPES[p]
        carrier = msg.find(shape.carrier)
        if carrier is None or (h.flags & shape.flags) != shape.flags:
            return None
        return p, carrier.value
    ct = msg.find(OptionType.CONTENT_TYPE)
    # A TELL that carries ERR is an "unknown" answer, not an INFORM.
    if ct is None or (h.verb == Verb.TELL and msg.has(OptionType.ERR)):
        return None
    p = _BY_CONTENT_TYPE.get((h.verb, ct.value))
    return None if p is None else (p, msg.payload)


def project(
    msg: Message, sender: int, receiver: int, tick: int
) -> ProjectedEvent | None:
    """Classify a delivered message as a performative event by reading
    SHAPES backwards, or None for auxiliary traffic (acks, pongs,
    unknown-answers, app-level frames)."""
    found = _performative_of(msg)
    if found is None:
        return None
    return ProjectedEvent(found[0], found[1].decode("utf-8", "replace"),
                          sender, receiver, msg.header.correlation_id, tick)


@dataclass(frozen=True)
class ConversationAutomaton(Config):
    """A finite conversation protocol: states, performative-labeled
    edges, and accepting states.  The transition relation is a partial
    map (no two edges share a source state and an identical action)."""

    name: str
    roles: tuple[str, ...]
    states: tuple[str, ...]
    initial: str
    accepting: tuple[str, ...]
    edges: tuple[Edge, ...] = field(metadata={"json": "transitions"})
    nesting_depth: int = 1
    # the literals each role's agent knows before the conversation
    knowledge: dict[str, tuple[str, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Raise FipaError, naming the field, unless the protocol is
        well formed and every action can be sent."""
        states = set(self.states)
        if self.initial not in states:
            raise FipaError(f"initial: {self.initial!r} is not declared")
        if not self.accepting:
            raise FipaError("accepting: no accepting states")
        for i, s in enumerate(self.accepting):
            if s not in states:
                raise FipaError(f"accepting[{i}]: {s!r} is not declared")
        roles = set(self.roles)
        probe = Agent(0)
        seen: dict[tuple, int] = {}
        convs: set[str] = set()
        for i, e in enumerate(self.edges):
            at = f"transitions[{i}]"
            for name, value, declared in (
                ("from", e.frm, states), ("to", e.to, states),
                ("sender", e.sender, roles), ("receiver", e.receiver, roles),
            ):
                if value not in declared:
                    raise FipaError(f"{at}.{name}: {value!r} is not declared")
            key = (e.frm, e.performative, e.sender, e.receiver, e.content,
                   e.conversation)
            if key in seen:
                raise FipaError(
                    f"{at}: nondeterministic, same state and action as "
                    f"transitions[{seen[key]}]"
                )
            seen[key] = i
            convs.add(e.conversation)
            try:
                translate(e, 0)
                if e.performative is Performative.REQUEST:
                    probe._tell(done(e.content), None, response=True)
                elif (e.performative is Performative.INFORM
                        and e.topic is not None):
                    probe.make_tell(e.content, topic=e.topic)
            except (wire.WireError, BadContent) as x:
                raise FipaError(f"{at}: {x}") from x
        if len(convs) > self.nesting_depth:
            raise FipaError(
                f"nesting_depth: {len(convs)} conversation levels exceed "
                f"declared nesting depth {self.nesting_depth}"
            )
        for role, lits in self.knowledge.items():
            if role not in roles:
                raise FipaError(f"knowledge: role {role!r} is not declared")
            for i, lit in enumerate(lits):
                try:
                    probe.kb_insert_text(lit)
                except BadContent as x:
                    at = f"knowledge.{path_key(role)}[{i}]"
                    raise FipaError(f"{at}: {x}") from x

    def outgoing(self, state: str) -> list[Edge]:
        return [e for e in self.edges if e.frm == state]

    def coaccessible(self) -> set[str]:
        """States from which an accepting state is reachable."""
        ok = set(self.accepting)
        changed = True
        while changed:
            changed = False
            for e in self.edges:
                if e.to in ok and e.frm not in ok:
                    ok.add(e.frm)
                    changed = True
        return ok


def enumerate_traces(
    auto: ConversationAutomaton,
    max_len: int,
    cap: int = 100_000,
) -> list[tuple[Edge, ...]]:
    """All nonempty prefixes of accepting runs, up to max_len actions,
    shortest first.

    A prefix of an accepting run is exactly a path from the initial
    state that stays within co-accessible states.  Cycles are allowed;
    the cap bounds the actions the traces hold in all, which is the
    work of executing them, and enumeration past it raises TooLarge.
    """
    ok = auto.coaccessible()
    out: list[tuple[Edge, ...]] = []
    actions = 0
    frontier: list[tuple[str, tuple[Edge, ...]]] = [(auto.initial, ())]
    for length in range(1, max_len + 1):
        nxt: list[tuple[str, tuple[Edge, ...]]] = []
        for state, path in frontier:
            for e in auto.outgoing(state):
                if e.to not in ok:
                    continue
                actions += length
                if actions > cap:
                    raise TooLarge(f"more than {cap} actions in traces "
                                   f"up to length {length}")
                p = path + (e,)
                out.append(p)
                nxt.append((e.to, p))
        frontier = nxt
    return out


def accepting_runs(
    auto: ConversationAutomaton, max_len: int, cap: int = 100_000
) -> list[tuple[Edge, ...]]:
    """Complete runs (initial to accepting) of at most max_len actions:
    the traces of `enumerate_traces` that end in an accepting state."""
    accepting = set(auto.accepting)
    runs = [t for t in enumerate_traces(auto, max_len, cap)
            if t[-1].to in accepting]
    runs.sort(
        key=lambda r: (
            len(r),
            tuple(
                (e.frm, e.performative.value, e.content, e.to)
                for e in r
            ),
        )
    )
    return runs


class _RecordingNode(BasicNode):
    """BasicNode that lifts every delivery to the performative level."""

    def __init__(self, agent: Agent, observed: list[ProjectedEvent]):
        super().__init__(agent)
        self._observed = observed

    def on_deliver(self, net: Network, label, now: int) -> bool:
        ev = project(label.message, label.sender, label.receiver, now)
        if ev is not None:
            self._observed.append(ev)
        return super().on_deliver(net, label, now)


@dataclass
class TraceResult:
    trace: tuple[Edge, ...]
    covered: bool
    failed_at: int | None = None
    reason: str | None = None
    semantic_events: int = 0


@dataclass
class InclusionReport:
    protocol: str
    traces_checked: int
    uncovered: list[TraceResult]

    @property
    def covered(self) -> int:
        return self.traces_checked - len(self.uncovered)

    @property
    def ok(self) -> bool:
        return not self.uncovered


class _TraceRun:
    """One automaton trace executed against live agents."""

    QUIESCENT_BUDGET = 64

    def __init__(self, auto: ConversationAutomaton, translate_fn):
        self.translate_fn = translate_fn
        self.role_ids = {role: i for i, role in enumerate(sorted(auto.roles))}
        self.observed: list[ProjectedEvent] = []
        self.nodes: dict[str, _RecordingNode] = {}
        for role, aid in self.role_ids.items():
            agent = Agent(aid)
            for lit in auto.knowledge.get(role, ()):
                agent.kb_insert_text(lit)
            self.nodes[role] = _RecordingNode(agent, self.observed)
        # Nothing reads the network's log: the nodes record what they see.
        self.net = Network(
            SimConfig(seed=0, gst=0, delta=1),
            list(self.nodes.values()),
            events=False,
        )
        self.conv_cid: dict[str, int] = {}
        self._next_cid = 0x4000

    def _settle(self) -> None:
        self.net.run_until_quiescent(self.net.now + self.QUIESCENT_BUDGET)

    def _matches(self, ev: ProjectedEvent, action: PerformativeAction) -> bool:
        if ev.tag is not action.performative:
            return False
        if ev.sender != self.role_ids[action.sender]:
            return False
        if ev.receiver != self.role_ids[action.receiver]:
            return False
        if ev.content != content_of(action):
            return False
        conv = action.conversation
        if conv in self.conv_cid:
            return ev.cid == self.conv_cid[conv]
        # First event of this conversation binds its cid, which must not
        # already belong to another conversation.
        return ev.cid not in self.conv_cid.values()

    def _inject(self, action: PerformativeAction) -> None:
        conv = action.conversation
        if conv not in self.conv_cid:  # its first action: a fresh cid
            self.conv_cid[conv] = self._next_cid
            self._next_cid += 1
        cid = self.conv_cid[conv]
        node = self.nodes[action.sender]
        to = self.role_ids[action.receiver]
        if (
            action.performative is Performative.INFORM
            and action.topic is not None
            and action.topic in node.agent.subscriptions
        ):
            for peer, m in node.agent.publish(
                action.topic, action.content, cid=cid
            ):
                node.emit(self.net, peer, m, self.net.now)
            return
        msg = node.agent.restamp(self.translate_fn(action, cid))
        node.emit(self.net, to, msg, self.net.now)

    def execute(self, trace: tuple[Edge, ...]) -> TraceResult:
        pos = 0
        self._settle()
        for i, action in enumerate(trace):
            idx = self._find(pos, action)
            if idx is None:
                self._inject(action)
                self._settle()
                idx = self._find(pos, action)
                if idx is None:
                    return TraceResult(
                        trace,
                        covered=False,
                        failed_at=i,
                        reason=(
                            f"{action.performative.name} "
                            f"{action.sender}->{action.receiver} "
                            f"{action.content!r} not observed"
                        ),
                        semantic_events=len(self.observed),
                    )
            # A conversation's first event binds it to its cid.
            self.conv_cid.setdefault(action.conversation,
                                     self.observed[idx].cid)
            pos = idx + 1
        self._settle()
        return TraceResult(
            trace, covered=True, semantic_events=len(self.observed)
        )

    def _find(self, pos: int, action: PerformativeAction) -> int | None:
        for i in range(pos, len(self.observed)):
            if self._matches(self.observed[i], action):
                return i
        return None


def check_trace_inclusion(
    auto: ConversationAutomaton,
    max_len: int = 8,
    translate_fn=translate,
    cap: int = 100_000,
) -> InclusionReport:
    """Execute every automaton trace up to max_len and verify each is
    realized by the translation plus the verb semantics."""
    traces = enumerate_traces(auto, max_len, cap)
    results = [_TraceRun(auto, translate_fn).execute(t) for t in traces]
    return InclusionReport(auto.name, len(traces),
                           [r for r in results if not r.covered])


@dataclass
class ProceduralBoundReport:
    protocol: str
    state_count: int
    runs_executed: int
    max_semantic_messages: int
    failed: TraceResult | None = None  # an accepting run that did not run

    @property
    def ok(self) -> bool:
        return (self.failed is None
                and self.max_semantic_messages <= self.state_count)


def procedural_bound_check(
    auto: ConversationAutomaton, cap: int = 100_000
) -> ProceduralBoundReport:
    """Execute every complete run of up to |states| actions and confirm
    no conversation produces more semantic messages than the automaton
    has states.  The first run that fails to execute ends the check
    and is reported as `failed`."""
    k = len(auto.states)
    report = ProceduralBoundReport(auto.name, k, 0, 0)
    for run in accepting_runs(auto, k, cap):
        result = _TraceRun(auto, translate).execute(run)
        if not result.covered:
            report.failed = result
            break
        report.max_semantic_messages = max(
            report.max_semantic_messages, result.semantic_events
        )
        report.runs_executed += 1
    return report
