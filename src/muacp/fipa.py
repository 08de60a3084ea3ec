"""FIPA ACL performatives mapped onto the four-verb core.

Thirteen performatives are supported.  Five are structural and map to
distinct verb/option shapes; the remaining eight are procedural and
ride on a base verb with a PROC option carrying the performative code
and a CID option binding the message to its conversation:

    INFORM(s,r,phi)      -> TELL  with literal content phi
    REQUEST(s,r,alpha)   -> ASK   with action content alpha
                            (the responder's reply is TELL done(alpha))
    QUERY_IF(s,r,phi)    -> ASK   with literal content phi
    SUBSCRIBE(s,r,t)     -> OBSERVE with topic t
    NOT_UNDERSTOOD(s,r,m)-> PING  with error flag and ERR detail m
    procedural f         -> base verb + PROC(code f) + CID(cid)

Conversation protocols are finite automata over performative actions.
The inclusion checker executes each automaton trace against real
agents on a lossless simulated network: an action is matched against
messages the agents already produced on their own (replies the verb
semantics generates), and only unmatched actions are injected through
the translation.  A trace is covered when every action appears, in
order, with consistent conversation ids.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field, replace

from . import wire
from .agent import Agent
from .simnet import BasicNode, Network, SimConfig
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


#: Procedural performatives and their one-byte PROC codes.
PROC_CODES: dict[Performative, int] = {
    Performative.AGREE: 1,
    Performative.REFUSE: 2,
    Performative.CFP: 3,
    Performative.PROPOSE: 4,
    Performative.ACCEPT_PROPOSAL: 5,
    Performative.REJECT_PROPOSAL: 6,
    Performative.FORWARD: 7,
    Performative.PROXY: 8,
}
CODE_TO_PERFORMATIVE = {v: k for k, v in PROC_CODES.items()}

#: Base verb for each procedural performative: solicitations ride ASK,
#: assertions ride TELL.
_PROC_VERB = {
    Performative.AGREE: Verb.TELL,
    Performative.REFUSE: Verb.TELL,
    Performative.CFP: Verb.ASK,
    Performative.PROPOSE: Verb.TELL,
    Performative.ACCEPT_PROPOSAL: Verb.TELL,
    Performative.REJECT_PROPOSAL: Verb.TELL,
    Performative.FORWARD: Verb.TELL,
    Performative.PROXY: Verb.ASK,
}


class FipaError(Exception):
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


@dataclass(frozen=True)
class Edge:
    frm: str
    action: PerformativeAction
    to: str


@dataclass(frozen=True)
class TranslatedMessage:
    kind: str  # "forward" (to inject) | "reply" (expected-response template)
    message: Message


def translate(action: PerformativeAction, cid: int) -> list[TranslatedMessage]:
    """Map one performative action to its wire message(s).

    Every message carries cid in the header correlation field.  REQUEST
    additionally yields the reply template the responder semantics is
    expected to produce; templates are never injected.
    """
    p = action.performative
    content = action.content.encode("utf-8")

    def msg(verb, options=(), payload=b"", flags=0):
        return wire.message(
            verb,
            flags=flags,
            correlation_id=cid & 0xFFFF,
            options=tuple(options),
            payload=payload,
        )

    if p is Performative.INFORM:
        return [
            TranslatedMessage(
                "forward",
                msg(
                    Verb.TELL,
                    [wire.opt_content_type(CONTENT_LITERAL)],
                    content,
                ),
            )
        ]
    if p is Performative.REQUEST:
        done = f"done({action.content})".encode("utf-8")
        return [
            TranslatedMessage(
                "forward",
                msg(
                    Verb.ASK,
                    [wire.opt_content_type(CONTENT_ACTION)],
                    content,
                ),
            ),
            TranslatedMessage(
                "reply",
                msg(
                    Verb.TELL,
                    [wire.opt_content_type(CONTENT_LITERAL)],
                    done,
                    flags=FLAG_RESPONSE,
                ),
            ),
        ]
    if p is Performative.QUERY_IF:
        return [
            TranslatedMessage(
                "forward",
                msg(
                    Verb.ASK,
                    [wire.opt_content_type(CONTENT_LITERAL)],
                    content,
                ),
            )
        ]
    if p is Performative.SUBSCRIBE:
        topic = action.topic if action.topic is not None else action.content
        return [
            TranslatedMessage(
                "forward", msg(Verb.OBSERVE, [wire.opt_topic(topic)])
            )
        ]
    if p is Performative.NOT_UNDERSTOOD:
        return [
            TranslatedMessage(
                "forward",
                msg(
                    Verb.PING,
                    [wire.opt_err(action.content)],
                    flags=FLAG_ERROR,
                ),
            )
        ]
    # Procedural: base verb + PROC + CID.
    code = PROC_CODES[p]
    return [
        TranslatedMessage(
            "forward",
            msg(
                _PROC_VERB[p],
                [
                    Option(OptionType.PROC, bytes((code,))),
                    wire.opt_cid(cid),
                ],
                content,
            ),
        )
    ]


def mutated_translate(
    action: PerformativeAction, cid: int
) -> list[TranslatedMessage]:
    """A deliberately wrong translation (REQUEST loses its action
    content and becomes a bare TELL).  Exists so the checker's ability
    to reject bad translations is itself testable."""
    if action.performative is Performative.REQUEST:
        return [
            TranslatedMessage(
                "forward",
                wire.message(
                    Verb.TELL,
                    correlation_id=cid & 0xFFFF,
                    options=(wire.opt_content_type(CONTENT_LITERAL),),
                    payload=action.content.encode("utf-8"),
                ),
            )
        ]
    return translate(action, cid)


@dataclass(frozen=True)
class ProjectedEvent:
    """A delivered message lifted back to the performative level."""

    tag: Performative
    content: str
    sender: int
    receiver: int
    cid: int
    tick: int


def project(msg: Message, sender: int, receiver: int, tick: int) -> ProjectedEvent | None:
    """Classify a delivered message as a performative event, or None for
    auxiliary traffic (acks, pongs, unknown-answers, app-level frames)."""
    h = msg.header
    proc = msg.find(OptionType.PROC)
    if proc is not None and len(proc.value) == 1:
        p = CODE_TO_PERFORMATIVE.get(proc.value[0])
        if p is not None:
            return ProjectedEvent(
                p,
                msg.payload.decode("utf-8", "replace"),
                sender,
                receiver,
                h.correlation_id,
                tick,
            )
    verb = h.verb
    if verb == Verb.PING:
        err = msg.find(OptionType.ERR)
        if h.is_error and err is not None:
            return ProjectedEvent(
                Performative.NOT_UNDERSTOOD,
                err.value.decode("utf-8", "replace"),
                sender,
                receiver,
                h.correlation_id,
                tick,
            )
        return None
    ct = msg.find(OptionType.CONTENT_TYPE)
    if verb == Verb.TELL:
        if msg.has(OptionType.ERR):
            return None  # "unknown" answers are auxiliary
        if ct is not None and ct.value == bytes((CONTENT_LITERAL,)):
            return ProjectedEvent(
                Performative.INFORM,
                msg.payload.decode("utf-8", "replace"),
                sender,
                receiver,
                h.correlation_id,
                tick,
            )
        return None
    if verb == Verb.ASK:
        if ct is None:
            return None
        if ct.value == bytes((CONTENT_LITERAL,)):
            tag = Performative.QUERY_IF
        elif ct.value == bytes((CONTENT_ACTION,)):
            tag = Performative.REQUEST
        else:
            return None
        return ProjectedEvent(
            tag,
            msg.payload.decode("utf-8", "replace"),
            sender,
            receiver,
            h.correlation_id,
            tick,
        )
    if verb == Verb.OBSERVE:
        topic = msg.find(OptionType.TOPIC)
        if topic is not None:
            return ProjectedEvent(
                Performative.SUBSCRIBE,
                topic.value.decode("utf-8", "replace"),
                sender,
                receiver,
                h.correlation_id,
                tick,
            )
    return None


@dataclass(frozen=True)
class ConversationAutomaton:
    """A finite conversation protocol: states, performative-labeled
    edges, and accepting states.  The transition relation is a partial
    map (no two edges share a source state and an identical action)."""

    name: str
    roles: tuple[str, ...]
    states: tuple[str, ...]
    initial: str
    accepting: tuple[str, ...]
    edges: tuple[Edge, ...]
    nesting_depth: int = 1
    knowledge: dict = field(default_factory=dict)  # role -> [literal text]

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        states = set(self.states)
        if self.initial not in states:
            raise FipaError(f"initial state {self.initial!r} unknown")
        if not self.accepting:
            raise FipaError("no accepting states")
        if not set(self.accepting) <= states:
            raise FipaError("accepting states outside state set")
        roles = set(self.roles)
        seen: set[tuple] = set()
        convs: set[str] = set()
        for e in self.edges:
            if e.frm not in states or e.to not in states:
                raise FipaError(f"edge {e} references unknown state")
            a = e.action
            if a.sender not in roles or a.receiver not in roles:
                raise FipaError(f"edge {e} references unknown role")
            key = (e.frm, a.performative, a.sender, a.receiver, a.content,
                   a.conversation)
            if key in seen:
                raise FipaError(f"nondeterministic transition at {key}")
            seen.add(key)
            convs.add(a.conversation)
        if len(convs) > self.nesting_depth:
            raise FipaError(
                f"{len(convs)} conversation levels exceed declared "
                f"nesting depth {self.nesting_depth}"
            )
        for role, lits in self.knowledge.items():
            if role not in roles:
                raise FipaError(f"knowledge for unknown role {role!r}")
            if not isinstance(lits, (list, tuple)):
                raise FipaError("knowledge entries must be literal lists")

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

    def product(self, other: "ConversationAutomaton") -> "ConversationAutomaton":
        """Asynchronous interleaving of two protocols.  Conversations
        are relabeled per side so the two instances stay distinct."""
        def relabel(edge: Edge, tag: str) -> PerformativeAction:
            return replace(
                edge.action, conversation=f"{tag}.{edge.action.conversation}"
            )

        states = tuple(
            f"{a}|{b}" for a in self.states for b in other.states
        )
        edges = []
        for a in self.states:
            for b in other.states:
                for e in self.outgoing(a):
                    edges.append(
                        Edge(f"{a}|{b}", relabel(e, "L"), f"{e.to}|{b}")
                    )
                for e in other.edges:
                    if e.frm == b:
                        edges.append(
                            Edge(f"{a}|{b}", relabel(e, "R"), f"{a}|{e.to}")
                        )
        knowledge: dict = {}
        for src in (self.knowledge, other.knowledge):
            for role, lits in src.items():
                knowledge.setdefault(role, [])
                for lit in lits:
                    if lit not in knowledge[role]:
                        knowledge[role].append(lit)
        return ConversationAutomaton(
            name=f"{self.name}*{other.name}",
            roles=tuple(sorted(set(self.roles) | set(other.roles))),
            states=states,
            initial=f"{self.initial}|{other.initial}",
            accepting=tuple(
                f"{a}|{b}" for a in self.accepting for b in other.accepting
            ),
            edges=tuple(edges),
            nesting_depth=self.nesting_depth + other.nesting_depth,
            knowledge=knowledge,
        )

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "roles": list(self.roles),
            "states": list(self.states),
            "initial": self.initial,
            "accepting": list(self.accepting),
            "nesting_depth": self.nesting_depth,
            "knowledge": {r: list(v) for r, v in sorted(self.knowledge.items())},
            "transitions": [
                {
                    "from": e.frm,
                    "to": e.to,
                    "performative": e.action.performative.value,
                    "sender": e.action.sender,
                    "receiver": e.action.receiver,
                    "content": e.action.content,
                    "conversation": e.action.conversation,
                    **(
                        {"topic": e.action.topic}
                        if e.action.topic is not None
                        else {}
                    ),
                }
                for e in self.edges
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ConversationAutomaton":
        try:
            edges = tuple(
                Edge(
                    t["from"],
                    PerformativeAction(
                        performative=Performative(t["performative"]),
                        sender=t["sender"],
                        receiver=t["receiver"],
                        content=t["content"],
                        conversation=t.get("conversation", "main"),
                        topic=t.get("topic"),
                    ),
                    t["to"],
                )
                for t in obj["transitions"]
            )
            return cls(
                name=obj["name"],
                roles=tuple(obj["roles"]),
                states=tuple(obj["states"]),
                initial=obj["initial"],
                accepting=tuple(obj["accepting"]),
                edges=edges,
                nesting_depth=obj.get("nesting_depth", 1),
                knowledge=dict(obj.get("knowledge", {})),
            )
        except (KeyError, ValueError, TypeError) as e:
            raise FipaError(f"bad protocol description: {e}") from e


def load_protocol(path: str) -> ConversationAutomaton:
    with open(path, "r", encoding="utf-8") as fp:
        return ConversationAutomaton.from_json(json.load(fp))


def enumerate_traces(
    auto: ConversationAutomaton,
    max_len: int,
    cap: int = 100_000,
) -> list[tuple[Edge, ...]]:
    """All nonempty prefixes of accepting runs, up to max_len actions.

    A prefix of an accepting run is exactly a path from the initial
    state that stays within co-accessible states.  Cycles are allowed;
    the explosion cap turns runaway enumeration into TooLarge.
    """
    if max_len < 1:
        return []
    ok = auto.coaccessible()
    out: list[tuple[Edge, ...]] = []
    frontier: list[tuple[str, tuple[Edge, ...]]] = [(auto.initial, ())]
    for _ in range(max_len):
        nxt: list[tuple[str, tuple[Edge, ...]]] = []
        for state, path in frontier:
            for e in auto.outgoing(state):
                if e.to not in ok:
                    continue
                p = path + (e,)
                out.append(p)
                nxt.append((e.to, p))
                if len(out) > cap:
                    raise TooLarge(
                        f"more than {cap} traces at length {len(p)}"
                    )
        frontier = nxt
    return out


def accepting_runs(
    auto: ConversationAutomaton, max_len: int, cap: int = 100_000
) -> list[tuple[Edge, ...]]:
    """Complete runs (initial to accepting) of at most max_len actions."""
    runs: list[tuple[Edge, ...]] = []
    accepting = set(auto.accepting)
    stack: list[tuple[str, tuple[Edge, ...]]] = [(auto.initial, ())]
    while stack:
        state, path = stack.pop()
        if state in accepting and path:
            runs.append(path)
        if len(path) >= max_len:
            continue
        for e in reversed(auto.outgoing(state)):
            stack.append((e.to, path + (e,)))
            if len(runs) + len(stack) > cap:
                raise TooLarge(f"run enumeration exceeded {cap}")
    runs.sort(
        key=lambda r: (
            len(r),
            tuple(
                (e.frm, e.action.performative.value, e.action.content, e.to)
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

    def on_deliver(self, net: Network, label, now: int) -> None:
        ev = project(label.message, label.sender, label.receiver, now)
        if ev is not None:
            self._observed.append(ev)
        super().on_deliver(net, label, now)


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
    covered: int
    uncovered: list[TraceResult]

    @property
    def ok(self) -> bool:
        return not self.uncovered


class _TraceRun:
    """One automaton trace executed against live agents."""

    QUIESCENT_BUDGET = 64

    def __init__(self, auto: ConversationAutomaton, translate_fn):
        self.auto = auto
        self.translate_fn = translate_fn
        self.role_ids = {role: i for i, role in enumerate(sorted(auto.roles))}
        self.observed: list[ProjectedEvent] = []
        self.nodes: dict[str, _RecordingNode] = {}
        for role, aid in self.role_ids.items():
            agent = Agent(aid)
            for lit in auto.knowledge.get(role, ()):
                agent.kb_insert_text(lit)
            self.nodes[role] = _RecordingNode(agent, self.observed)
        self.net = Network(
            SimConfig(seed=0, gst=0, delta=1),
            list(self.nodes.values()),
        )
        self.conv_cid: dict[str, int] = {}
        self.cid_conv: dict[int, str] = {}
        self._next_cid = 0x4000

    def _cid_for(self, conversation: str) -> int:
        if conversation not in self.conv_cid:
            cid = self._next_cid
            self._next_cid += 1
            self.conv_cid[conversation] = cid
            self.cid_conv[cid] = conversation
        return self.conv_cid[conversation]

    def _settle(self) -> None:
        self.net.run_until_quiescent(self.net.now + self.QUIESCENT_BUDGET)

    def _matches(self, ev: ProjectedEvent, action: PerformativeAction) -> bool:
        if ev.tag is not action.performative:
            return False
        if ev.sender != self.role_ids[action.sender]:
            return False
        if ev.receiver != self.role_ids[action.receiver]:
            return False
        expected_content = (
            action.topic
            if action.performative is Performative.SUBSCRIBE
            and action.topic is not None
            else action.content
        )
        if ev.content != expected_content:
            return False
        conv = action.conversation
        if conv in self.conv_cid:
            return ev.cid == self.conv_cid[conv]
        # First event of this conversation binds its cid, which must not
        # already belong to another conversation.
        return ev.cid not in self.cid_conv

    def _bind(self, ev: ProjectedEvent, action: PerformativeAction) -> None:
        conv = action.conversation
        if conv not in self.conv_cid:
            self.conv_cid[conv] = ev.cid
            self.cid_conv[ev.cid] = conv

    def _inject(self, action: PerformativeAction) -> None:
        cid = self._cid_for(action.conversation)
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
        for tm in self.translate_fn(action, cid):
            if tm.kind != "forward":
                continue
            msg = node.agent.restamp(tm.message)
            node.emit(self.net, to, msg, self.net.now)

    def execute(self, trace: tuple[Edge, ...]) -> TraceResult:
        pos = 0
        self._settle()
        for i, edge in enumerate(trace):
            action = edge.action
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
            self._bind(self.observed[idx], action)
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
    uncovered: list[TraceResult] = []
    covered = 0
    for trace in traces:
        result = _TraceRun(auto, translate_fn).execute(trace)
        if result.covered:
            covered += 1
        else:
            uncovered.append(result)
    return InclusionReport(
        protocol=auto.name,
        traces_checked=len(traces),
        covered=covered,
        uncovered=uncovered,
    )


@dataclass
class ProceduralBoundReport:
    protocol: str
    state_count: int
    runs_executed: int
    max_semantic_messages: int

    @property
    def ok(self) -> bool:
        return self.max_semantic_messages <= self.state_count


def procedural_bound_check(
    auto: ConversationAutomaton, cap: int = 100_000
) -> ProceduralBoundReport:
    """Execute every complete run of up to |states| actions and confirm
    no conversation produces more semantic messages than the automaton
    has states."""
    k = len(auto.states)
    runs = accepting_runs(auto, k, cap)
    worst = 0
    executed = 0
    for run in runs:
        result = _TraceRun(auto, translate).execute(run)
        if not result.covered:
            raise FipaError(
                f"accepting run failed to execute: {result.reason}"
            )
        worst = max(worst, result.semantic_events)
        executed += 1
    return ProceduralBoundReport(
        protocol=auto.name,
        state_count=k,
        runs_executed=executed,
        max_semantic_messages=worst,
    )
