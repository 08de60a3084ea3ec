"""Which program functions the traced run wraps, and the per-layer
metrics computed from the spans and counts it records.

Every per-layer metric is reported for every workload; a layer a
workload never calls reports zeros.  `*.self_us` and `*.self_ns` are
mean self time per call; ratios are plain shares of their stated base.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter

from spans import Tracer

VERBS = ("PING", "TELL", "ASK", "OBSERVE")
DROP_REASONS = ("loss", "receiver-crashed", "rate-cap", "infeasible-send",
                "infeasible-receive")


def _mod(name: str):
    return importlib.import_module(f"muacp.{name}")


def install(tracer: Tracer) -> list:
    """Wrap the public boundaries of every layer.  Returns the list that
    collects each `Network` constructed while traced."""
    wire, resources, agent = _mod("wire"), _mod("resources"), _mod("agent")
    simnet, consensus = _mod("simnet"), _mod("consensus")
    workloads, compression = _mod("workloads"), _mod("compression")
    namespaces = [m for k, m in sorted(sys.modules.items())
                  if k == "muacp" or k.startswith("muacp.")]
    counts = tracer.counts
    networks: list = []

    def decode_after(args, result, exc, token):
        if isinstance(exc, wire.WireError):
            counts["wire.decode.errors"] += 1

    def charge_after(args, result, exc, token):
        if isinstance(exc, resources.InfeasibleCharge):
            counts["resources.charge.refused"] += 1

    def refund_before(args):
        if not any(args[1].as_tuple()):
            counts["resources.refund.zero"] += 1

    def timers_before(args):
        return len(args[0].timeouts)

    def timers_after(args, result, exc, token):
        expired = len(args[0].timeouts) - token
        counts["agent.retransmits"] += len(result or ())
        counts["agent.ask_timeouts"] += expired
        if result or expired:
            counts["agent.fire_timers.useful"] += 1

    def network_after(args, result, exc, token):
        networks.append(args[0])

    for fn, name, hooks in (
        (wire.encode, "wire.encode", {}),
        (wire.decode, "wire.decode", {"after": decode_after}),
        (wire.message, "wire.message", {}),
        (wire.validate, "wire.validate", {}),
        (consensus.classify, "consensus.classify", {}),
        (consensus.run_campaign, "consensus.run_campaign", {}),
        (compression.symbol_of, "compression.symbol_of", {}),
    ):
        tracer.wrap_function(fn, namespaces, name, **hooks)

    for owner, attr, name, hooks in (
        (resources.ResourceBudget, "charge", "resources.charge",
         {"after": charge_after}),
        (resources.ResourceBudget, "refund", "resources.refund",
         {"before": refund_before}),
        (resources.CostModel, "cost_of", "resources.cost_of", {}),
        (agent.Agent, "receive",
         lambda args: "agent.receive." + args[1].header.verb.name, {}),
        (agent.Agent, "send", "agent.send", {}),
        (agent.Agent, "build", "agent.build", {}),
        (agent.Agent, "fire_timers", "agent.fire_timers",
         {"before": timers_before, "after": timers_after}),
        (simnet.Network, "__init__", "simnet.network_init",
         {"after": network_after}),
        (simnet.Network, "step", "simnet.step", {}),
        (simnet.Network, "transmit", "simnet.transmit", {}),
        (simnet.Network, "metrics", "simnet.metrics", {}),
        (simnet.BasicNode, "on_tick", "simnet.on_tick", {}),
        (simnet.BasicNode, "on_deliver", "simnet.on_deliver", {}),
        (simnet.SimEventLog, "sent_messages", "simnet.sent_messages", {}),
        (consensus.Participant, "__init__", "consensus.participant_init", {}),
        (consensus.Participant, "on_tick", "consensus.on_tick", {}),
        (consensus.Participant, "on_deliver", "consensus.on_deliver", {}),
        (consensus.FailureDetector, "step", "consensus.fd_step", {}),
        (workloads.ScaleNode, "on_tick", "workloads.on_tick", {}),
        (workloads.ScaleNode, "on_deliver", "workloads.on_deliver", {}),
    ):
        tracer.wrap(owner, attr, name, **hooks)
    return networks


_NODE_TICKS = ("workloads.on_tick", "consensus.on_tick", "simnet.on_tick")
_CORPUS = ("simnet.sent_messages", "wire.decode", "compression.symbol_of")
_RUN_SETUP = ("consensus.participant_init", "simnet.network_init")


def metrics(tracer: Tracer, networks: list, observed: dict) -> dict:
    """Per-layer metrics as name -> (value, unit)."""
    agg = tracer.per_name()
    counts = tracer.counts

    def calls(name):
        return agg.get(name, (0, 0, 0))[0]

    def self_per_call(name, scale):
        n, self_ns, _ = agg.get(name, (0, 0, 0))
        return self_ns / n / scale if n else 0.0

    def share(part, whole):
        return part / whole if whole else 0.0

    # Node ticks are the per-node hooks `Network.step` calls directly;
    # one is useful when anything below it transmitted.
    step_id = tracer.name_id("simnet.step")
    node_ids = {tracer.name_id(n) for n in _NODE_TICKS}
    corpus_ids = {tracer.name_id(n) for n in _CORPUS}
    setup_ids = {tracer.name_id(n) for n in _RUN_SETUP}
    campaign = tracer.name_id("consensus.run_campaign")
    sent = tracer.contains("simnet.transmit")
    node_ticks = useful_ticks = 0
    corpus_ns = setup_ns = 0
    name, parent = tracer.name, tracer.parent
    for i, nid in enumerate(name):
        p = parent[i]
        if p < 0:
            continue
        pid = name[p]
        if pid == step_id and nid in node_ids:
            node_ticks += 1
            useful_ticks += sent[i]
        elif pid == campaign:
            if nid in corpus_ids:
                corpus_ns += tracer.end[i] - tracer.start[i]
            elif nid in setup_ids:
                setup_ns += tracer.end[i] - tracer.start[i]
    runs = calls("consensus.run_campaign")

    drops: Counter = Counter()
    records = delivers = max_in_flight = max_queue_depth = 0
    for net in networks:
        report = net.metrics()
        records += len(net.log)
        delivers += report.delivers
        max_in_flight = max(max_in_flight, report.max_in_flight)
        max_queue_depth = max(max_queue_depth, report.max_queue_depth)
        drops.update(r.reason for r in net.log.records if r.kind == "drop")
    step_self = agg.get("simnet.step", (0, 0, 0))[1]

    out = {
        "wire.encode.calls": (calls("wire.encode"), "count"),
        "wire.encode.self_us": (self_per_call("wire.encode", 1e3), "us"),
        "wire.decode.calls": (calls("wire.decode"), "count"),
        "wire.decode.self_us": (self_per_call("wire.decode", 1e3), "us"),
        "wire.decode.errors": (counts["wire.decode.errors"], "count"),
        "wire.message.self_us": (self_per_call("wire.message", 1e3), "us"),
        "wire.validate.self_us": (self_per_call("wire.validate", 1e3), "us"),
        "resources.charge.calls": (calls("resources.charge"), "count"),
        "resources.charge.self_ns": (
            self_per_call("resources.charge", 1), "ns"),
        "resources.refund.calls": (calls("resources.refund"), "count"),
        "resources.refund.self_ns": (
            self_per_call("resources.refund", 1), "ns"),
        "resources.refund.zero_ratio": (
            share(counts["resources.refund.zero"],
                  calls("resources.refund")), "ratio"),
        "resources.cost_of.self_ns": (
            self_per_call("resources.cost_of", 1), "ns"),
        "resources.infeasible_ratio": (
            share(counts["resources.charge.refused"],
                  calls("resources.charge")), "ratio"),
    }
    for verb in VERBS:
        out[f"agent.receive.calls.{verb}"] = (
            calls(f"agent.receive.{verb}"), "count")
        out[f"agent.receive.self_us.{verb}"] = (
            self_per_call(f"agent.receive.{verb}", 1e3), "us")
    out.update({
        "agent.send.self_us": (self_per_call("agent.send", 1e3), "us"),
        "agent.build.self_us": (self_per_call("agent.build", 1e3), "us"),
        "agent.fire_timers.calls": (calls("agent.fire_timers"), "count"),
        "agent.fire_timers.self_us": (
            self_per_call("agent.fire_timers", 1e3), "us"),
        "agent.fire_timers.useful_ratio": (
            share(counts["agent.fire_timers.useful"],
                  calls("agent.fire_timers")), "ratio"),
        "agent.retransmits": (counts["agent.retransmits"], "count"),
        "agent.ask_timeouts": (counts["agent.ask_timeouts"], "count"),
        "simnet.step.self_us": (self_per_call("simnet.step", 1e3), "us"),
        "simnet.step.self_us_per_delivery": (
            share(step_self / 1e3, delivers), "us"),
        "simnet.transmit.calls": (calls("simnet.transmit"), "count"),
        "simnet.transmit.self_us": (
            self_per_call("simnet.transmit", 1e3), "us"),
        "simnet.on_tick.calls": (node_ticks, "count"),
        "simnet.on_tick.useful_ratio": (
            share(useful_ticks, node_ticks), "ratio"),
        "simnet.metrics.self_ms": (self_per_call("simnet.metrics", 1e6), "ms"),
        "simnet.log.records": (records, "count"),
    })
    for reason in DROP_REASONS:
        out[f"simnet.drops.{reason}"] = (drops[reason], "count")
    out.update({
        "simnet.max_in_flight": (max_in_flight, "count"),
        "simnet.max_queue_depth": (max_queue_depth, "count"),
        "consensus.classify.calls": (calls("consensus.classify"), "count"),
        "consensus.classify.self_us": (
            self_per_call("consensus.classify", 1e3), "us"),
        "consensus.on_deliver.self_us": (
            self_per_call("consensus.on_deliver", 1e3), "us"),
        "consensus.fd_step.self_us": (
            self_per_call("consensus.fd_step", 1e3), "us"),
        "consensus.setup_us_per_run": (share(setup_ns / 1e3, runs), "us"),
        "consensus.corpus_us_per_run": (share(corpus_ns / 1e3, runs), "us"),
        "consensus.core_msgs_per_run": (
            observed.get("consensus.core_msgs_per_run", 0), "count"),
        "consensus.nack_ratio": (
            observed.get("consensus.nack_ratio", 0), "ratio"),
        "workloads.on_tick.self_us": (
            self_per_call("workloads.on_tick", 1e3), "us"),
        "workloads.on_deliver.self_us": (
            self_per_call("workloads.on_deliver", 1e3), "us"),
        "workloads.conversations.request": (
            observed.get("workloads.conversations.request", 0), "count"),
        "workloads.conversations.negotiation": (
            observed.get("workloads.conversations.negotiation", 0), "count"),
        "compression.symbol_of.self_us": (
            self_per_call("compression.symbol_of", 1e3), "us"),
    })
    return out
