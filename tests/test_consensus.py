"""Single-decree agreement: shapes, acceptor rules, detector, campaigns."""

import hashlib
import tracemalloc
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from muacp import consensus, simnet, wire
from muacp.agent import Agent
from muacp.compression import symbol_of
from muacp.consensus import (
    Ballot,
    CampaignConfig,
    Classified,
    DecreeConfig,
    FailureDetector,
    NodeConfig,
    NodeState,
    Participant,
    acceptor_accept,
    acceptor_prepare,
    choose_value,
    classify,
    derive_fault_schedule,
    exhaustive_interleaving_check,
    opt_ballot,
    opt_value,
    run_campaign,
    run_decree,
    start_attempt,
    step,
)
from muacp.schema import ConfigError
from muacp.simnet import Network, SimConfig
from muacp.wire import FLAG_RESPONSE, Verb
from oracles import suspicion_bound


def lossless_sim(seed=0, **kw):
    return SimConfig(seed=seed, gst=0, delta=1, drop_rate=0.0,
                     dup_rate=0.0, **kw)


# -- ballots ----------------------------------------------------------------


def test_ballot_total_order():
    assert Ballot(1, 2) < Ballot(2, 0)
    assert Ballot(1, 1) < Ballot(1, 2)
    assert max(Ballot(3, 0), Ballot(2, 9)) == Ballot(3, 0)


@given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
def test_ballot_codec_roundtrip(rnd, prop):
    b = Ballot(rnd, prop)
    blob = b.encode()
    assert len(blob) == 8
    assert Ballot.decode(blob) == b


@given(st.integers(0, 3), st.integers(0, 3),
       st.integers(0, 3), st.integers(0, 3))
def test_ballots_order_and_hash_as_their_plain_tuples(r1, p1, r2, p2):
    a, b = Ballot(r1, p1), Ballot(r2, p2)
    ta, tb = (r1, p1), (r2, p2)
    assert (a < b, a <= b, a == b, a > b) == (ta < tb, ta <= tb, ta == tb,
                                              ta > tb)
    assert a == ta and hash(a) == hash(ta)


# -- shape classification ---------------------------------------------------


B1 = Ballot(1, 0)
B2 = Ballot(2, 1)


def test_classify_prepare():
    m = wire.message(Verb.ASK, options=(opt_ballot(B1), wire.opt_conv(7)))
    c = classify(m)
    assert (c.kind, c.ballot, c.instance) == ("prepare", B1, 7)


def test_classify_promise_fresh():
    m = wire.message(Verb.TELL, flags=FLAG_RESPONSE, options=(opt_ballot(B1),))
    c = classify(m)
    assert (c.kind, c.ballot, c.prior) == ("promise", B1, None)


def test_classify_promise_with_prior():
    m = wire.message(
        Verb.TELL,
        flags=FLAG_RESPONSE,
        options=(opt_ballot(B2), opt_ballot(B1), opt_value(b"v")),
    )
    c = classify(m)
    assert (c.kind, c.ballot, c.prior) == ("promise", B2, (B1, b"v"))


def test_classify_accepted():
    m = wire.message(
        Verb.TELL, flags=FLAG_RESPONSE,
        options=(opt_ballot(B1), opt_value(b"v")),
    )
    c = classify(m)
    assert (c.kind, c.ballot, c.value) == ("accepted", B1, b"v")


def test_classify_nack():
    m = wire.message(
        Verb.TELL, flags=FLAG_RESPONSE, options=(wire.opt_err(B2.encode()),)
    )
    c = classify(m)
    assert (c.kind, c.ballot) == ("nack", B2)


def test_classify_accept():
    m = wire.message(
        Verb.TELL,
        options=(opt_ballot(B1), opt_value(b"v"), wire.opt_conv(1)),
    )
    c = classify(m)
    assert (c.kind, c.value, c.instance) == ("accept", b"v", 1)


def test_classify_decide():
    m = wire.message(
        Verb.TELL, options=(opt_value(b"v"), wire.opt_conv(1)), qos=1
    )
    c = classify(m)
    assert (c.kind, c.value) == ("decide", b"v")


def test_ordinary_traffic_not_classified():
    assert classify(wire.message(Verb.PING)) is None
    assert classify(wire.message(Verb.TELL, payload=b"hello")) is None
    assert classify(wire.message(Verb.OBSERVE,
                                 options=(wire.opt_topic("t"),))) is None
    # consensus shapes whose ballot or instance has the wrong length
    short_conv = wire.Option(wire.OptionType.CONV, b"xy")
    short_ballot = wire.Option(wire.OptionType.BALLOT, b"\x00" * 3)
    for verb, flags, options in (
        (Verb.PING, 0, (short_conv,)),
        (Verb.ASK, 0, (short_ballot,)),
        (Verb.ASK, 0, (opt_ballot(B1), short_conv)),
        (Verb.TELL, FLAG_RESPONSE, (short_ballot,)),
        (Verb.TELL, FLAG_RESPONSE, (opt_ballot(B2), short_ballot,
                                    opt_value(b"v"))),
        (Verb.TELL, FLAG_RESPONSE, (short_ballot, opt_value(b"v"))),
        (Verb.TELL, 0, (short_ballot, opt_value(b"v"))),
        (Verb.TELL, 0, (opt_value(b"v"), short_conv)),
    ):
        msg = wire.message(verb, flags=flags, options=options)
        assert classify(msg) is None, msg


def test_shapes_pairwise_distinct():
    shapes = [
        wire.message(Verb.ASK, options=(opt_ballot(B1),)),
        wire.message(Verb.TELL, flags=FLAG_RESPONSE,
                     options=(opt_ballot(B1),)),
        wire.message(Verb.TELL, flags=FLAG_RESPONSE,
                     options=(opt_ballot(B2), opt_ballot(B1),
                              opt_value(b"v"))),
        wire.message(Verb.TELL, flags=FLAG_RESPONSE,
                     options=(opt_ballot(B1), opt_value(b"v"))),
        wire.message(Verb.TELL, flags=FLAG_RESPONSE,
                     options=(wire.opt_err(B1.encode()),)),
        wire.message(Verb.TELL, options=(opt_ballot(B1), opt_value(b"v"))),
        wire.message(Verb.TELL, options=(opt_value(b"v"), wire.opt_conv(1))),
    ]
    kinds = [classify(m).kind for m in shapes]
    assert kinds == ["prepare", "promise", "promise", "accepted",
                     "nack", "accept", "decide"]


def test_classified_values_round_trip_through_the_wire():
    # What the rules send, built as Participant builds it and classified
    # back, is the same tuple: prepare, accept and decide carry CONV.
    p = Participant(Agent(0), DecreeConfig(n=3, proposers=(0,), instance=7))
    sent = [
        Classified("prepare", ballot=B1, instance=7),
        Classified("promise", ballot=B2),
        Classified("promise", ballot=B2, prior=(B1, b"v")),
        Classified("nack", ballot=B2),
        Classified("accept", ballot=B1, value=b"v", instance=7),
        Classified("accepted", ballot=B1, value=b"v"),
        Classified("decide", value=b"v", instance=7),
    ]
    for c in sent:
        back = classify(p._build(c))
        assert type(back) is Classified and back == c
        assert back == tuple(c)


# -- acceptor and proposer rules ----------------------------------------------


def test_acceptor_promises_monotonically():
    s = NodeState()
    s, r1 = acceptor_prepare(s, B1)
    assert (r1.kind, r1.ballot, r1.prior) == ("promise", B1, None)
    s, r2 = acceptor_prepare(s, B2)
    assert r2.kind == "promise"
    s, low = acceptor_prepare(s, B1)
    assert (low.kind, low.ballot) == ("nack", B2)


def test_acceptor_accept_respects_promise():
    s, _ = acceptor_prepare(NodeState(), B2)
    s, nack = acceptor_accept(s, B1, b"v")
    assert nack.kind == "nack"
    s, ok = acceptor_accept(s, B2, b"v")
    assert (ok.kind, ok.value) == ("accepted", b"v")
    assert s.accepted == (B2, b"v")


def test_promise_carries_prior_accepted_value():
    s, _ = acceptor_prepare(NodeState(), B1)
    s, _ = acceptor_accept(s, B1, b"old")
    s, r = acceptor_prepare(s, B2)
    assert r.prior == (B1, b"old")


def test_proposer_adopts_highest_prior():
    promises = ((0, None), (1, (B1, b"low")), (2, (B2, b"high")))
    assert choose_value(promises, b"own") == b"high"
    assert choose_value(((0, None), (1, None)), b"own") == b"own"


def test_self_addressed_messages_apply_at_once_in_send_order():
    # n=1: the node's own promise and accepted form each quorum, so one
    # attempt runs to a decision without touching the network.
    cfg = NodeConfig(id=0, peers=(0,), value=b"v")
    s, sent = start_attempt(cfg, NodeState(), now=5)
    assert [(to, c.kind) for to, c in sent] == [
        (0, "prepare"), (0, "promise"), (0, "accept"), (0, "accepted"),
    ]
    assert (s.decided, s.decided_tick, s.accepted) == (b"v", 5, (B1, b"v"))


def test_nack_backs_off_by_proposer_id():
    cfg = NodeConfig(id=2, peers=(0, 1, 2), value=b"v")
    s, _ = start_attempt(cfg, NodeState(), now=0)
    s, sent = step(cfg, s, 1, Classified("nack", ballot=Ballot(4, 1)), 10)
    assert sent == []
    assert (s.phase, s.max_round_seen, s.cooldown_until) == ("idle", 4, 15)
    s, _ = start_attempt(cfg, s, now=15)
    assert s.ballot == Ballot(5, 2)


# -- decree runs ----------------------------------------------------------------


def test_lossless_single_proposer_uses_exactly_4n_messages():
    cfg = DecreeConfig(n=3, proposers=(0,), sim=lossless_sim(seed=1))
    out = run_decree(cfg)
    assert out.decided == {0: b"v0", 1: b"v0", 2: b"v0"}
    assert out.counts["prepare"] == 3
    assert out.counts["promise"] == 3
    assert out.counts["accept"] == 3
    assert out.counts["accepted"] == 3
    assert out.counts["nack"] == 0
    assert out.core_message_count() == 12 == 4 * cfg.n


def test_explicit_values_respected():
    cfg = DecreeConfig(
        n=3, proposers=(2,), values=("chosen",), sim=lossless_sim(seed=4)
    )
    out = run_decree(cfg)
    assert out.decided_values == {b"chosen"}
    assert out.safety_ok


def test_dueling_proposers_still_agree():
    for seed in range(10):
        cfg = DecreeConfig(n=3, sim=lossless_sim(seed=seed))
        out = run_decree(cfg)
        assert out.safety_ok
        assert out.all_survivors_decided


def test_leader_crash_recovers():
    hits = 0
    for seed in range(8):
        sim = SimConfig(seed=seed, gst=30, delta=5, drop_rate=0.02,
                        dup_rate=0.01, fault_schedule=((0, 10),))
        out = run_decree(DecreeConfig(n=3, sim=sim))
        assert out.safety_ok
        assert out.all_survivors_decided
        hits += 0 not in out.decided
    assert hits == 8     # the crashed node never decides


# -- failure detector ----------------------------------------------------------


def test_detector_suspects_silent_peer_and_restores_on_pong():
    fd = FailureDetector([1], ping_interval=5, timeout=10,
                         timeout_cap=80)
    assert fd.step(0) == [1]
    fd.note_ping(1, now=0)
    for t in range(1, 10):
        assert fd.step(t) == []
    fd.step(10)
    assert fd.suspects(1)
    events = [(e.event, e.peer) for e in fd.history]
    assert events == [("suspect", 1)]
    fd.on_pong(1, now=12)
    assert not fd.suspects(1)
    assert fd.monitors[1].timeout == 20      # doubled after wrong suspicion
    assert [(e.event,) for e in fd.history][-1] == ("restore",)


def test_detector_timeout_capped():
    fd = FailureDetector([1], ping_interval=1, timeout=60,
                         timeout_cap=80)
    fd.monitors[1].suspected = True
    fd.on_pong(1, now=0)
    assert fd.monitors[1].timeout == 80


def test_detector_probes_staggered_per_peer():
    fd = FailureDetector([1, 2, 3], ping_interval=5, timeout=10,
                         timeout_cap=80)
    for t, expected in ((0, [1]), (1, [2]), (2, [3]), (3, [])):
        due = fd.step(t)
        assert due == expected
        for peer in due:
            fd.note_ping(peer, now=t)


def test_suspicion_bound_formula():
    assert suspicion_bound(100, ping_interval=5, timeout=25,
                           delivery_bound=5) == 136


# -- fault schedules and campaigns ---------------------------------------------


def test_fault_schedule_deterministic_and_in_window():
    a = derive_fault_schedule(9, n=5, crash_count=2, window=(5, 40))
    b = derive_fault_schedule(9, n=5, crash_count=2, window=(5, 40))
    assert a == b
    assert len({aid for aid, _ in a}) == 2
    assert all(5 <= t <= 40 for _, t in a)
    assert a != derive_fault_schedule(10, n=5, crash_count=2, window=(5, 40))


def test_zero_crash_campaign_runs_with_empty_schedules():
    assert derive_fault_schedule(9, n=5, crash_count=0, window=(5, 40)) == ()
    cfg = CampaignConfig.from_json({
        "base": {"n": 3}, "seed_count": 3, "crash_count": 0})
    runs, _ = run_campaign(cfg)
    assert [run.outcome.config.sim.fault_schedule for run in runs] == [
        (), (), ()]
    assert all(run.outcome.crashed == set() for run in runs)


def test_campaign_rows_and_corpus():
    base = DecreeConfig(
        n=3,
        sim=SimConfig(seed=0, gst=50, delta=5, drop_rate=0.03, dup_rate=0.02),
    )
    cfg = CampaignConfig(base=base, seeds=tuple(range(8)), crash_count=1)
    runs, corpus = run_campaign(cfg, collect_corpus=True)
    assert len(runs) == 8
    for run in runs:
        row = run.row()
        assert row["safety_ok"] and row["all_survivors_decided"]
        assert row["crashed"] <= 1
        # a crash can cut an exchange short; a quorum still needs most of it
        assert row["core_messages"] >= 8
    assert sum(corpus.values()) > 0


def test_campaign_corpus_counts_every_sent_message():
    base = DecreeConfig(
        n=5,
        sim=SimConfig(seed=0, gst=50, delta=5, drop_rate=0.03, dup_rate=0.02),
    )
    cfg = CampaignConfig(base=base, seeds=(0, 1, 2), crash_count=2)
    runs, corpus = run_campaign(cfg, collect_corpus=True)
    # A campaign keeps only its first run's records, so each seed's log
    # comes from a campaign of that seed alone.
    decoded: Counter = Counter()
    sends = 0
    for seed in cfg.seeds:
        (alone,), _ = run_campaign(replace(cfg, seeds=(seed,)),
                                   collect_corpus=True)
        log = alone.outcome.log
        decoded.update(symbol_of(wire.decode(b)) for b in log.sent_messages())
        sends += len(log.of_kind("send"))
        if seed == cfg.seeds[0]:
            assert runs[0].outcome.log.to_jsonl() == log.to_jsonl()
    assert corpus == decoded
    assert sum(corpus.values()) == sends
    assert [len(run.outcome.log) > 0 for run in runs] == [True, False, False]


def test_campaign_without_corpus_keeps_no_event_records(monkeypatch):
    base = DecreeConfig(
        n=5,
        sim=SimConfig(seed=0, gst=50, delta=5, drop_rate=0.03, dup_rate=0.02),
    )
    cfg = CampaignConfig(base=base, seeds=(0, 1, 2), crash_count=2)
    logged, _ = run_campaign(cfg, collect_corpus=True)
    # The corpus reads every run's records and keeps the first run's.
    assert [len(run.outcome.log) > 0 for run in logged] == [True, False, False]

    def no_record(*args, **kwargs):
        raise AssertionError("an EventRecord was built")

    monkeypatch.setattr(simnet, "EventRecord", no_record)
    quiet, corpus = run_campaign(cfg)
    assert corpus == Counter()
    assert [run.outcome.log.records for run in quiet] == [[], [], []]
    assert [run.row() for run in quiet] == [run.row() for run in logged]


class PolledParticipant(Participant):
    """Test-only: woken every tick whatever `Participant.next_wake` says."""

    def next_wake(self, now: int) -> int:
        return now + 1


#: SHA-256 of the decree's event log and gauges below, as written when
#: every node was still polled every tick.
DECREE_LOG_SHA256 = (
    "71548b43a24e7fc4befd4772b8b03b3a016e8f7ecd758ba9bec7120725f4aba1"
)


@pytest.mark.parametrize("node_class", [Participant, PolledParticipant])
def test_decree_with_crashes_and_duplicates_is_unchanged(node_class):
    n = 5
    decree = DecreeConfig(n=n, proposers=(0, 1))
    parts = [node_class(Agent(i), decree) for i in range(n)]
    net = Network(
        SimConfig(seed=11, gst=60, delta=5, drop_rate=0.05, dup_rate=0.05,
                  fault_schedule=((0, 15), (3, 30))),
        parts,
    )
    net.run(300)
    assert net.counts["dup"] > 0 and net.counts["crash"] == 2
    assert {p.state.decided for p in parts if p.id not in net.crashed} == {
        b"v0"}
    out = net.log.to_jsonl() + net.metrics().gauges_csv()
    assert hashlib.sha256(out.encode()).hexdigest() == DECREE_LOG_SHA256


@pytest.mark.parametrize("retry, delta, warns", [
    (9, 5, True), (10, 5, False), (30, 5, False), (1, 1, True), (2, 1, False)])
def test_retry_warning_marks_a_timeout_below_the_worst_round_trip(
        retry, delta, warns):
    cfg = DecreeConfig(retry_timeout=retry,
                       sim=SimConfig(delta=delta))
    note = cfg.retry_warning()
    if warns:
        assert f"retry_timeout {retry} " in note
        assert f"sim.delta {delta}," in note
    else:
        assert note is None


def test_campaign_config_seed_range_form():
    base = DecreeConfig(n=3, sim=lossless_sim())
    obj = {
        "base": base.to_json(), "seed_base": 4, "seed_count": 3,
        "crash_count": 0,
    }
    cfg = CampaignConfig.from_json(obj)
    assert cfg.seeds == (4, 5, 6)
    with pytest.raises(ValueError):
        CampaignConfig.from_json({**obj, "mystery": 1})


def test_campaign_config_refuses_a_seed_count_before_building_it():
    base = DecreeConfig(n=3, sim=lossless_sim())
    obj = {"base": base.to_json(), "seed_count": 10**12}
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError) as exc:
            CampaignConfig.from_json(obj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == (
        f"seed_count: at most {consensus.MAX_SEEDS} seeds, got {10**12}")
    assert peak < 1 << 20


# -- exhaustive interleavings -------------------------------------------------


#: States the exhaustive check visits at bound 14.  States and messages
#: in flight are told apart by tuple equality, so a change to how
#: `NodeState`, `Ballot` or `Classified` compare shows here.
EXHAUSTIVE_STATES_AT_14 = 177_768


@pytest.fixture(scope="module")
def unpatched_at_14():
    """One unpatched bound-14 search, shared by the tests that only
    read its report."""
    return exhaustive_interleaving_check(max_deliveries=14)


def test_exhaustive_check_no_violations(unpatched_at_14):
    rep = unpatched_at_14
    assert rep.ok
    assert rep.explored_states == EXHAUSTIVE_STATES_AT_14
    assert rep.delivered_bound == 14


def test_exhaustive_check_smaller_bound_subset(unpatched_at_14):
    small = exhaustive_interleaving_check(max_deliveries=10)
    full = unpatched_at_14
    assert small.ok and full.ok
    assert small.explored_states <= full.explored_states


def test_exhaustive_check_explores_round_two_ballots(unpatched_at_14):
    opened = unpatched_at_14.opened_ballots
    assert unpatched_at_14.ok
    assert {b.round for b in opened} == {1, 2}
    assert {b.proposer for b in opened if b.round == 2} == {0, 1}


def test_exhaustive_check_runs_the_live_acceptor_rule(monkeypatch):
    # An acceptor that promises every ballot, even below its promise,
    # lets two proposers each gather a quorum for their own value.
    def always_promise(s, b):
        return s._replace(promised=b), Classified(
            "promise", ballot=b, prior=s.accepted
        )

    monkeypatch.setattr(consensus, "acceptor_prepare", always_promise)
    rep = exhaustive_interleaving_check(max_deliveries=14)
    assert not rep.ok
    assert rep.violations[0].startswith("divergent decisions [b'x', b'y']")
