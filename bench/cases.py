"""The four benchmark workloads.

Each workload is single-process, single-threaded and closed-loop: the
next operation starts only when the previous one has returned.  A
workload builds its inputs from the seed in `setup` (timed as set-up),
then `run` executes one pass over those inputs and returns what the
pass measured and produced.  Passes over the same inputs must produce
byte-identical outputs; `digest` is the SHA-256 of those outputs,
restricted to the keys each output has today.

Program functions are looked up on their modules at the start of every
pass, never cached at set-up, so a tracer that wraps them between
passes is seen by the next pass.  `run` calls `cal.maybe()` (see
calibrate.py) only between the intervals it times.
"""

from __future__ import annotations

import glob
import hashlib
import importlib
import json
import os
import random
import struct
from collections import Counter
from dataclasses import dataclass, field
from types import SimpleNamespace as _State
from time import perf_counter_ns as clock


@dataclass
class Pass:
    """What one pass over a workload's inputs measured and produced."""

    ns: int                 # timed wall time of the pass
    tick_ns: list[int]      # one sample per tick (see each workload)
    run_ns: list[int]       # one sample per run (see each workload)
    sends: int
    frames: int
    attempted: int
    failed: int
    digest: str
    observed: dict = field(default_factory=dict)  # per-layer counts


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _only(d: dict, keys) -> dict:
    return {k: d[k] for k in keys}


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fp:
        return json.load(fp)


# -- scale_n400 -----------------------------------------------------------------

_SUMMARY_KEYS = ("ticks", "sends", "delivers", "drops", "dups", "crashes",
                 "max_in_flight", "max_queue_depth", "tick_ms")
_LATENCY_KEYS = ("count", "median", "p95", "p99", "max")
_STATS_KEYS = ("started", "completed", "failed", "clean")


class ScaleN400:
    """`build_scale` on configs/scale_n400.json, stepped to `until`.

    tick = one `Network.step`; run = the whole simulation plus its
    `metrics()` report; send = one `Network.transmit`; frame = one
    delivery to a live receiver; operation = one conversation.
    """

    name = "scale_n400"
    TRACE_PASSES = 1

    def setup(self, root: str, seed: int) -> _State:
        workloads = importlib.import_module("muacp.workloads")
        obj = _load_json(os.path.join(root, "configs", "scale_n400.json"))
        obj["seed"] = seed
        obj["sim"]["seed"] = seed
        cfg = workloads.ScaleConfig.from_json(obj)
        net, stats = workloads.build_scale(cfg)
        return _State(workloads=workloads, cfg=cfg, net=net, stats=stats)

    def reset(self, s: _State) -> None:
        s.net = s.stats = None
        s.net, s.stats = s.workloads.build_scale(s.cfg)

    def sizes(self, s: _State) -> dict:
        return {"n": s.cfg.n, "until": s.cfg.until}

    def run(self, s: _State, cal) -> Pass:
        net, until = s.net, s.cfg.until
        step = net.step
        ticks = []
        while net.now < until:
            t0 = clock()
            step()
            ticks.append(clock() - t0)
            cal.maybe()
        t0 = clock()
        report = net.metrics(s.cfg.tick_ms)
        ns = sum(ticks) + clock() - t0

        summary = report.summary()
        snap = s.stats.snapshot()
        out = _only(summary, _SUMMARY_KEYS)
        out["latency_ticks"] = _only(summary["latency_ticks"], _LATENCY_KEYS)
        out["latency_ms"] = _only(summary["latency_ms"], _LATENCY_KEYS[1:])
        started, completed = snap["started"], snap["completed"]
        return Pass(
            ns=ns,
            tick_ns=ticks,
            run_ns=[ns],
            sends=summary["sends"],
            frames=summary["delivers"],
            attempted=sum(started.values()),
            failed=sum(
                max(0, n - completed.get(k, 0)) for k, n in started.items()
            ),
            digest=digest(
                {"metrics": out, "workload": _only(snap, _STATS_KEYS)}
            ),
            observed={
                f"workloads.conversations.{k}": started.get(k, 0)
                for k in ("request", "negotiation")
            },
        )


# -- consensus_n5 ------------------------------------------------------------

_ROW_KEYS = ("seed", "n", "crashed", "decided", "survivors",
             "all_survivors_decided", "safety_ok", "core_messages",
             "prepares", "promises", "accepts", "accepteds", "nacks",
             "decides", "first_decision_tick", "last_decision_tick", "ticks")


class ConsensusN5:
    """`run_campaign(..., collect_corpus=True)` once per seed on
    configs/consensus_n5.json, for RUNS seeds from the seed argument.

    run = one decree; tick = that decree's wall time over its simulated
    ticks; send = one transmission in its event log; frame = one
    delivery; operation = one decree run.
    """

    name = "consensus_n5"
    TRACE_PASSES = 1
    RUNS = 100

    def setup(self, root: str, seed: int) -> _State:
        consensus = importlib.import_module("muacp.consensus")
        camp = consensus.CampaignConfig.from_json(
            _load_json(os.path.join(root, "configs", "consensus_n5.json"))
        )
        configs = [
            consensus.CampaignConfig(
                base=camp.base,
                seeds=(s,),
                crash_count=camp.crash_count,
                crash_window=camp.crash_window,
            )
            for s in range(seed, seed + self.RUNS)
        ]
        return _State(consensus=consensus, configs=configs)

    def reset(self, s: _State) -> None:
        pass

    def sizes(self, s: _State) -> dict:
        return {"runs": len(s.configs), "n": s.configs[0].base.n}

    def run(self, s: _State, cal) -> Pass:
        run_campaign = s.consensus.run_campaign
        ticks, runs_ns, rows = [], [], []
        corpus: Counter = Counter()
        kinds: Counter = Counter()
        for cc in s.configs:
            t0 = clock()
            runs, c = run_campaign(cc, collect_corpus=True)
            dt = clock() - t0
            (run,) = runs
            runs_ns.append(dt)
            ticks.append(dt // max(1, run.outcome.ticks))
            rows.append(_only(run.row(), _ROW_KEYS))
            corpus.update(c)
            kinds.update(r.kind for r in run.outcome.log.records)
            cal.maybe()
        failed = sum(
            1 for r in rows
            if not (r["safety_ok"] and r["all_survivors_decided"])
        )
        shapes = sorted(
            [verb, [list(p) for p in profile], payload.hex(), n]
            for (verb, profile, payload), n in corpus.items()
        )
        core = sum(r["core_messages"] for r in rows)
        rounds = sum(r["prepares"] + r["accepts"] for r in rows)
        return Pass(
            ns=sum(runs_ns),
            tick_ns=ticks,
            run_ns=runs_ns,
            sends=kinds["send"],
            frames=kinds["deliver"],
            attempted=len(rows),
            failed=failed,
            digest=digest({"rows": rows, "corpus": shapes}),
            observed={
                "consensus.core_msgs_per_run": core / len(rows),
                "consensus.nack_ratio": (
                    sum(r["nacks"] for r in rows) / rounds if rounds else 0.0
                ),
            },
        )


# -- codec_mix -----------------------------------------------------------------


class CodecMix:
    """Encode-then-decode round trips over a seeded message pool shaped
    like bench-codec's (three fixed classes plus 256 random messages
    with 0-3 options and 0-63 payload bytes), then `wire.validate` over
    vectors/*.hex checked against each .json sidecar.

    tick = one round trip, averaged over the pool of one pass (the
    pool's size classes make single round trips cluster, and a
    percentile that falls between two clusters jumps); run = one pass
    over pool and vectors; send = one encode; frame = one round trip;
    operation = one frame or one vector.
    """

    name = "codec_mix"
    TRACE_PASSES = 400
    RANDOM = 256

    def setup(self, root: str, seed: int) -> _State:
        wire = importlib.import_module("muacp.wire")
        rng = random.Random(seed)
        pool = [
            wire.message(wire.Verb.PING),
            wire.message(
                wire.Verb.TELL,
                options=(wire.Option(wire.OptionType.VALUE, b"\x01" * 9),),
            ),
            wire.message(
                wire.Verb.ASK,
                options=(wire.opt_content_type(wire.CONTENT_LITERAL),),
                payload=b"p(1)",
                correlation_id=7,
            ),
        ]
        for i in range(self.RANDOM):
            # Sizes are stratified, not drawn: option counts cycle
            # through 0-3, payload lengths through 0-63 and option value
            # lengths through 0-11, so every seed's pool has the same
            # size mix and the seed varies only field values and bytes.
            options = tuple(
                wire.Option(
                    rng.randrange(256),
                    bytes(rng.randrange(256)
                          for _ in range((i // 4 + 5 * j) % 12)),
                )
                for j in range(i % 4)
            )
            pool.append(
                wire.message(
                    wire.Verb(rng.randrange(4)),
                    qos=rng.randrange(4),
                    flags=rng.randrange(4),
                    message_id=rng.randrange(1 << 16),
                    sequence=rng.randrange(1 << 16),
                    correlation_id=rng.randrange(1 << 16),
                    options=options,
                    payload=bytes(
                        rng.randrange(256) for _ in range((i // 4) % 64)
                    ),
                )
            )
        vectors = []
        for path in sorted(glob.glob(os.path.join(root, "vectors", "*.hex"))):
            with open(path, "r", encoding="utf-8") as fp:
                blob = bytes.fromhex("".join(fp.read().split()))
            stem = os.path.splitext(path)[0]
            vectors.append(
                (os.path.basename(stem), blob, _load_json(stem + ".json"))
            )
        if not vectors:
            raise FileNotFoundError("no vectors/*.hex found")
        return _State(wire=wire, pool=pool, vectors=vectors)

    def reset(self, s: _State) -> None:
        pass

    def sizes(self, s: _State) -> dict:
        return {"pool": len(s.pool), "vectors": len(s.vectors)}

    def run(self, s: _State, cal) -> Pass:
        cal.maybe()
        wire = s.wire
        encode, decode, validate = wire.encode, wire.decode, wire.validate
        ticks, blobs, decoded = [], [], []
        verdicts = []
        t_start = clock()
        for m in s.pool:
            t0 = clock()
            b = encode(m)
            d = decode(b)
            ticks.append(clock() - t0)
            blobs.append(b)
            decoded.append(d)
        for _stem, blob, _expect in s.vectors:
            violations = validate(blob)
            try:
                got = decode(blob)
            except wire.WireError as e:
                got = e
            verdicts.append((violations, got))
        ns = clock() - t_start

        failed = sum(1 for m, d in zip(s.pool, decoded) if d != m)
        clauses = []
        for (stem, _blob, expect), (violations, got) in zip(
            s.vectors, verdicts
        ):
            clauses.append([stem, [v.clause for v in violations]])
            failed += not _vector_ok(expect, violations, got)
        h = hashlib.sha256()
        for b in blobs:
            h.update(struct.pack(">I", len(b)))
            h.update(b)
        return Pass(
            ns=ns,
            tick_ns=[sum(ticks) // len(ticks)],
            run_ns=[ns],
            sends=len(blobs),
            frames=len(blobs),
            attempted=len(blobs) + len(s.vectors),
            failed=failed,
            digest=digest({"encoded": h.hexdigest(), "vectors": clauses}),
        )


def _vector_ok(expect: dict, violations: list, got) -> bool:
    """The sidecar verdict: `expect: error` names the WireError class
    decode raises; otherwise the listed fields of the decoded message."""
    if expect.get("expect") == "error":
        if not violations or not isinstance(got, Exception):
            return False
        return expect.get("error", type(got).__name__) == type(got).__name__
    if violations or isinstance(got, Exception):
        return False
    fields = {
        "verb": got.header.verb.name,
        "qos": got.header.qos,
        "flags": got.header.flags,
        "message_id": got.header.message_id,
        "sequence": got.header.sequence,
        "correlation_id": got.header.correlation_id,
        "payload_hex": got.payload.hex(),
        "options": [[o.code, o.value.hex()] for o in got.options],
        "size": got.wire_size,
    }
    return all(
        fields[k] == v for k, v in expect.items() if k != "expect"
    )


# -- agent_budgeted ----------------------------------------------------------

# Fractional cost model: every charge and refund has a real denominator.
_COST = {
    "per_byte_bandwidth": "2/3",
    "per_message_cpu": "5/7",
    "per_byte_cpu": "1/11",
    "buffer_per_byte": "1/3",
}
# Per-agent limits.  Memory covers a full 32-entry history ring of the
# largest frames, so refunds never run dry; agent 1's cpu runs out about
# four fifths of the way through a session, after which its sends and
# receives are refused atomically.
_LIMITS = (
    {"memory": 1000, "bandwidth": 10**6, "cpu": 10**6, "energy": 1},
    {"memory": 1000, "bandwidth": 10**6, "cpu": 520, "energy": 1},
)
_KINDS = ("ask_lit", "ask_act", "tell", "observe", "publish", "ping",
          "malformed")
_WEIGHTS = (20, 14, 20, 4, 10, 12, 8)


def _malformed(rng: random.Random) -> bytes:
    """A hand-built frame that breaks one well-formedness clause."""
    header = struct.pack(">BBHHH", 0x10 | (rng.randrange(4) << 2), 0,
                         rng.randrange(1 << 16), rng.randrange(1 << 16),
                         rng.randrange(1 << 16))
    kind = rng.randrange(4)
    if kind == 0:   # truncated
        return header[: rng.randrange(11)]
    if kind == 1:   # bad version
        return bytes((header[0] & 0x0F,)) + header[1:] + b"\x00\x00\x00"
    if kind == 2:   # trailing bytes
        return header + b"\x00\x00\x00" + bytes(1 + rng.randrange(4))
    return header + b"\x01" + struct.pack(">BH", 5, 40) + b"\x00" * 3


def _session_script(rng: random.Random, ticks: int, per_tick: int,
                    atoms: list[str]) -> list:
    script = []
    for _ in range(ticks):
        actions = []
        for _ in range(per_tick):
            kind = rng.choices(_KINDS, _WEIGHTS)[0]
            actor = rng.randrange(2)
            qos = rng.randrange(2)
            if kind in ("ask_lit", "tell"):
                # asks also query atoms that are never told
                arg = ("!" if rng.random() < 0.3 else "") + rng.choice(
                    atoms[: 18 if kind == "tell" else 24]
                )
            elif kind == "ask_act":
                arg = f"act{rng.randrange(40)}"
                qos = 1
            elif kind == "observe":
                arg = f"topic{rng.randrange(3)}"
            elif kind == "publish":
                arg = (f"topic{rng.randrange(3)}", rng.choice(atoms))
            elif kind == "malformed":
                arg = _malformed(rng)
            else:
                arg = None
            deadline = rng.choice((None, 12, 40))
            actions.append((kind, actor, qos, arg, deadline))
        script.append(actions)
    return script


class AgentBudgeted:
    """Two `Agent`s exchanging seeded frames over bytes with no
    `Network`: `send`, `wire.encode`, `handle_raw`, `receive` and
    `fire_timers`, under a fractional `CostModel` with finite budgets.

    A pass is SESSIONS sessions, each between two fresh agents.  Each
    tick both agents fire their timers, the tick's scripted actions
    run, and the frames sent last tick are offered to `handle_raw`
    (a seeded share of them is lost, so QoS-1 retransmission and ask
    timeouts happen).  tick = one such tick; run = one session; send =
    one accepted `Agent.send`; frame = one frame offered to
    `handle_raw`; operation = one frame.
    """

    name = "agent_budgeted"
    TRACE_PASSES = 10
    SESSIONS = 10
    TICKS = 60
    ACTIONS_PER_TICK = 2
    LOSS = 0.08

    def setup(self, root: str, seed: int) -> _State:
        agent = importlib.import_module("muacp.agent")
        wire = importlib.import_module("muacp.wire")
        resources = importlib.import_module("muacp.resources")
        model = resources.CostModel.from_json(_COST)
        limits = [resources.ResourceVector.of(**lim) for lim in _LIMITS]
        rng = random.Random(seed)
        atoms = [f"p{i}({'x' * rng.randrange(24)})" for i in range(24)]
        scripts = [
            _session_script(rng, self.TICKS, self.ACTIONS_PER_TICK, atoms)
            for _ in range(self.SESSIONS)
        ]
        lost = [rng.random() < self.LOSS for _ in range(4096)]
        s = _State(agent=agent, wire=wire, resources=resources,
                   model=model, limits=limits, scripts=scripts, lost=lost)
        self.reset(s)
        return s

    def reset(self, s: _State) -> None:
        full = s.resources.ResourceBudget.full
        s.sessions = [
            [s.agent.Agent(i, budget=full(limit), model=s.model)
             for i, limit in enumerate(s.limits)]
            for _ in s.scripts
        ]

    def sizes(self, s: _State) -> dict:
        return {"sessions": len(s.scripts), "ticks": self.TICKS,
                "actions": sum(len(a) for sc in s.scripts for a in sc)}

    def run(self, s: _State, cal) -> Pass:
        Infeasible = s.agent.Infeasible
        encode = s.wire.encode
        CONTENT_ACTION = s.wire.CONTENT_ACTION
        lost = s.lost
        queue: list[tuple[bytes, int, int]] = []
        n = {"sends": 0, "offered": 0, "frames": 0, "failed": 0}

        def send(a, msg, to: int, now: int, fresh: bool = True) -> None:
            try:
                a.send(msg, to, now, fresh=fresh)
            except Infeasible:
                return
            n["sends"] += 1
            data = encode(msg)
            k = n["offered"]
            n["offered"] = k + 1
            if not lost[k % len(lost)]:
                queue.append((data, to, a.id))

        ticks, sessions_ns = [], []
        for agents, script in zip(s.sessions, s.scripts):
            cal.maybe()
            queue.clear()
            t_session = clock()
            for now, actions in enumerate(script):
                t0 = clock()
                due = queue[:]
                queue.clear()
                for a in agents:
                    for to, msg in a.fire_timers(now):
                        send(a, msg, to, now, fresh=False)
                for kind, actor, qos, arg, deadline in actions:
                    a = agents[actor]
                    peer = 1 - actor
                    if kind == "ask_lit":
                        send(a, a.make_ask(arg, qos=qos, deadline=deadline),
                             peer, now)
                    elif kind == "ask_act":
                        send(a, a.make_ask(arg, kind=CONTENT_ACTION, qos=qos,
                                           deadline=deadline), peer, now)
                    elif kind == "tell":
                        send(a, a.make_tell(arg, qos=qos), peer, now)
                    elif kind == "observe":
                        send(a, a.make_observe(arg, qos=qos), peer, now)
                    elif kind == "publish":
                        for to, msg in a.publish(*arg, qos=qos):
                            send(a, msg, to, now)
                    elif kind == "ping":
                        send(a, a.make_ping(qos=qos), peer, now)
                    else:
                        due.append((arg, actor, peer))
                for data, to, sender in due:
                    n["frames"] += 1
                    b = agents[to]
                    try:
                        replies = b.handle_raw(data, sender, now)
                    except Infeasible:
                        continue
                    except Exception:
                        n["failed"] += 1
                        continue
                    for dest, msg in replies:
                        send(b, msg, dest, now)
                t1 = clock()
                ticks.append(t1 - t0)
                for a in agents:
                    if any(x < 0 for x in a.budget.remaining.as_tuple()):
                        n["failed"] += 1
                t_session += clock() - t1   # the budget check is not timed
            sessions_ns.append(clock() - t_session)

        state = [
            {
                "kb": sorted(a.kb.items()),
                "remaining": [str(x) for x in a.budget.remaining.as_tuple()],
                "infeasible": a.infeasible_count,
            }
            for agents in s.sessions
            for a in agents
        ]
        return Pass(
            ns=sum(sessions_ns),
            tick_ns=ticks,
            run_ns=sessions_ns,
            sends=n["sends"],
            frames=n["frames"],
            attempted=max(1, n["frames"]),
            failed=n["failed"],
            digest=digest(state),
        )


WORKLOADS = {
    w.name: w for w in (ScaleN400(), ConsensusN5(), CodecMix(), AgentBudgeted())
}
