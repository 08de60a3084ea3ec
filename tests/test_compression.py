"""Entropy accounting, Huffman optimality bounds, the encoder budget."""

import glob
import heapq
import json
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from muacp import compression as cz
from muacp import schema, wire
from muacp.compression import (
    FIXED_FRAMING_BITS,
    HUFFMAN_SLACK_BITS,
    INDEX_BITS,
    CompressionError,
    DistEntry,
    MessageDistribution,
    build_tables,
    check_bound,
    huffman,
    symbol_of,
)
from oracles import entropy, joint_entropy, kraft_sum

V = wire.Verb


def uniform_verbs():
    return MessageDistribution(
        [DistEntry(v, (), b"", 0.25) for v in (V.PING, V.TELL, V.ASK, V.OBSERVE)]
    )


def dyadic_payloads():
    return MessageDistribution([
        DistEntry(V.TELL, (), b"a", 0.5),
        DistEntry(V.TELL, (), b"b", 0.25),
        DistEntry(V.TELL, (), b"c", 0.125),
        DistEntry(V.TELL, (), b"d", 0.125),
    ])


# -- entropy oracles ------------------------------------------------------------


def test_uniform_verbs_entropy_is_two_bits():
    rep = entropy(uniform_verbs())
    assert rep.h_verb == pytest.approx(2.0, abs=1e-12)
    assert rep.h_profile_given_verb == 0.0
    assert rep.h_payload_given_rest == 0.0
    assert rep.h_total == pytest.approx(2.0, abs=1e-12)


def test_degenerate_distribution_has_zero_entropy():
    d = MessageDistribution([DistEntry(V.PING, (), b"", 1.0)])
    assert entropy(d).h_total == 0.0
    assert joint_entropy(d) == 0.0


def test_dyadic_payload_entropy():
    rep = entropy(dyadic_payloads())
    assert rep.h_verb == 0.0
    assert rep.h_payload_given_rest == pytest.approx(1.75, abs=1e-12)
    assert rep.h_total == pytest.approx(1.75, abs=1e-12)


def test_conditional_decomposition_hand_numbers():
    # TELL splits over two profiles, ASK does not: H(O|V) = 0.5
    d = MessageDistribution([
        DistEntry(V.TELL, ((6, 1),), b"", 0.25),
        DistEntry(V.TELL, ((7, 2),), b"", 0.25),
        DistEntry(V.ASK, ((6, 1),), b"", 0.5),
    ])
    rep = entropy(d)
    assert rep.h_verb == pytest.approx(1.0, abs=1e-12)
    assert rep.h_profile_given_verb == pytest.approx(0.5, abs=1e-12)
    assert rep.h_payload_given_rest == 0.0


def _random_dist(rng: random.Random) -> MessageDistribution:
    n = rng.randint(1, 24)
    raw = [rng.random() + 1e-9 for _ in range(n)]
    total = sum(raw)
    entries = []
    used = set()
    for w in raw:
        while True:
            sym = (
                rng.randrange(4),
                tuple(
                    (rng.randrange(1, 10), rng.randrange(0, 10))
                    for _ in range(rng.randrange(3))
                ),
                bytes(rng.randrange(256) for _ in range(rng.randrange(6))),
            )
            if sym not in used:
                used.add(sym)
                break
        entries.append(DistEntry(sym[0], sym[1], sym[2], w / total))
    return MessageDistribution(entries)


@pytest.mark.parametrize("seed", range(10))
def test_chain_rule_matches_joint_entropy(seed):
    d = _random_dist(random.Random(seed))
    assert entropy(d).h_total == pytest.approx(joint_entropy(d), abs=1e-9)


# -- distribution model ---------------------------------------------------------


def test_probabilities_must_sum_to_one():
    with pytest.raises(CompressionError):
        MessageDistribution([DistEntry(V.PING, (), b"", 0.5)])


def test_duplicate_symbols_rejected():
    with pytest.raises(CompressionError):
        MessageDistribution([
            DistEntry(V.PING, (), b"", 0.5),
            DistEntry(V.PING, (), b"", 0.5),
        ])


def test_from_counts_and_symbol_of():
    m1 = wire.message(V.TELL, payload=b"x")
    m2 = wire.message(V.TELL, payload=b"x", message_id=9)  # same symbol
    m3 = wire.message(V.ASK, options=(wire.opt_content_type(1),))
    assert symbol_of(m1) == symbol_of(m2)
    d = MessageDistribution.from_counts(Counter(map(symbol_of, [m1, m2, m3])))
    probs = {e.symbol: e.prob for e in d.entries}
    assert probs[symbol_of(m1)] == pytest.approx(2 / 3)
    assert probs[symbol_of(m3)] == pytest.approx(1 / 3)


def test_from_wire_corpus_decodes():
    blobs = [wire.encode(wire.message(V.PING))] * 3
    d = MessageDistribution.from_counts(
        Counter(symbol_of(wire.decode(b)) for b in blobs))
    assert len(d.entries) == 1


def test_json_roundtrip(tmp_path):
    d = MessageDistribution([
        DistEntry(V.TELL, ((5, 9),), b"\xff", 0.5),
        DistEntry(V.PING, (), b"", 0.5),
    ])
    p = tmp_path / "d.json"
    p.write_text(json.dumps(d.to_json()))
    assert schema.load(str(p), MessageDistribution).entries == d.entries


# -- huffman ------------------------------------------------------------------


def test_huffman_dyadic_codeword_lengths():
    t = huffman({"a": 0.5, "b": 0.25, "c": 0.125, "d": 0.125})
    lengths = {s: len(w) for s, w in t.codewords.items()}
    assert lengths == {"a": 1, "b": 2, "c": 3, "d": 3}
    assert kraft_sum(t) == 1
    assert t.expected_length == pytest.approx(1.75)


def test_huffman_single_symbol_codes_zero_bits():
    t = huffman({"only": 1.0})
    assert t.codewords == {"only": ""}
    assert t.expected_length == 0.0


def test_huffman_prefix_free():
    t = huffman({f"s{i}": 1 + (i % 5) for i in range(17)})
    words = sorted(t.codewords.values())
    for i, w in enumerate(words):
        for other in words[i + 1:]:
            assert not other.startswith(w) or other == w


def test_huffman_deterministic_under_insertion_order():
    weights = {"x": 1.0, "y": 1.0, "z": 2.0}
    a = huffman(weights)
    b = huffman(dict(reversed(list(weights.items()))))
    assert a.codewords == b.codewords


def _prepend_codewords(weights):
    """Oracle: the textbook construction that prepends one bit to every
    codeword of both merged groups, with the same tie order as `huffman`."""
    syms = sorted(weights)
    total = math.fsum(weights.values())
    codes = {s: "" for s in syms}
    heap = [(weights[s] / total, i, [s]) for i, s in enumerate(syms)]
    heapq.heapify(heap)
    stamp = len(syms)
    while len(heap) > 1:
        w0, _, group0 = heapq.heappop(heap)
        w1, _, group1 = heapq.heappop(heap)
        for s in group0:
            codes[s] = "0" + codes[s]
        for s in group1:
            codes[s] = "1" + codes[s]
        heapq.heappush(heap, (w0 + w1, stamp, group0 + group1))
        stamp += 1
    return codes


@settings(max_examples=200)
@given(st.dictionaries(st.text("abc", min_size=1, max_size=4),
                       st.integers(1, 4), min_size=1, max_size=40))
def test_huffman_codewords_match_the_prepend_construction(weights):
    # Weights from a small range, so most merges break a tie.
    got = huffman(weights).codewords
    want = _prepend_codewords(weights)
    assert list(got.items()) == list(want.items())


@settings(max_examples=150)
@given(st.dictionaries(st.text("ab", min_size=1, max_size=6),
                       st.integers(1, 50), min_size=1, max_size=20))
def test_huffman_within_one_bit_of_entropy(weights):
    t = huffman(weights)
    assert kraft_sum(t) <= 1
    assert t.expected_length >= t.entropy - 1e-9
    if len(weights) > 1:
        assert t.expected_length < t.entropy + 1


# -- the encoder bound ---------------------------------------------------------


def test_bound_constants():
    assert FIXED_FRAMING_BITS == 11 * 8
    assert INDEX_BITS == math.ceil(math.log2(wire.K_MAX)) == 4
    assert HUFFMAN_SLACK_BITS == 3


def test_bound_on_uniform_verbs_is_exact():
    rep = check_bound(uniform_verbs())
    assert rep.expected_code_bits == pytest.approx(2.0)
    assert rep.expected_total_bits == pytest.approx(88 + 4 + 2.0)
    assert rep.bound_bits == pytest.approx(2.0 + 88 + 4 + 3)
    assert rep.ok


def test_bound_across_fixture_files():
    paths = sorted(glob.glob("configs/distributions/*.json"))
    assert len(paths) >= 5
    for path in paths:
        rep = check_bound(schema.load(path, MessageDistribution))
        assert rep.ok, path
        assert rep.expected_code_bits <= rep.entropy_bits + 3 + 1e-6


@pytest.mark.parametrize("seed", range(5))
def test_bound_on_random_distributions(seed):
    d = _random_dist(random.Random(1000 + seed))
    rep = check_bound(d)
    assert rep.ok
    # per-stage Huffman never beats the joint entropy
    assert rep.expected_code_bits >= rep.entropy_bits - 1e-9


def test_three_stage_tables_cover_support():
    d = _random_dist(random.Random(42))
    verb_table, profile_tables, payload_tables = build_tables(d)
    for e in d.entries:
        assert e.verb in verb_table.codewords
        assert e.profile in profile_tables[e.verb].codewords
        assert e.payload in payload_tables[(e.verb, e.profile)].codewords


def test_report_extras():
    d = MessageDistribution([
        DistEntry(V.TELL, ((6, 1),), b"", 0.5),
        DistEntry(V.TELL, (), b"", 0.5),
    ])
    rep = check_bound(d)
    assert rep.expected_option_count == pytest.approx(0.5)
    assert rep.refined_index_bits == pytest.approx(0.5 * INDEX_BITS)
    # expected wire bits: 0.5 * 11 bytes + 0.5 * (11 + 4) bytes
    assert rep.expected_wire_bits == pytest.approx((0.5 * 11 + 0.5 * 15) * 8)


# -- one grouping pass against the per-context rescans ----------------------
#
# The three functions below are the earlier implementations, which
# scanned every entry once per context.  The grouped pass must give the
# same floats bit for bit, because the checker report is pinned.


def _oracle_entropy(dist):
    p_verb, p_vo = {}, {}
    for e in dist.entries:
        p_verb[e.verb] = p_verb.get(e.verb, 0.0) + e.prob
        key = (e.verb, e.profile)
        p_vo[key] = p_vo.get(key, 0.0) + e.prob
    h_v = cz._h(p_verb.values())
    h_o = 0.0
    for v, pv in sorted(p_verb.items()):
        h_o += pv * cz._h(
            [p / pv for (vv, _), p in sorted(p_vo.items()) if vv == v])
    h_p = 0.0
    for (v, profile), pvo in sorted(p_vo.items()):
        h_p += pvo * cz._h([
            e.prob / pvo for e in dist.entries
            if e.verb == v and e.profile == profile])
    return cz.EntropyReport(h_v, h_o, h_p)


def _oracle_tables(dist):
    p_verb = {}
    for e in dist.entries:
        p_verb[e.verb] = p_verb.get(e.verb, 0.0) + e.prob
    profile_tables, payload_tables = {}, {}
    for v in sorted(p_verb):
        weights = {}
        for e in dist.entries:
            if e.verb == v:
                weights[e.profile] = weights.get(e.profile, 0.0) + e.prob
        profile_tables[v] = huffman(weights)
        for profile in sorted(weights):
            payload_tables[(v, profile)] = huffman({
                e.payload: e.prob for e in dist.entries
                if e.verb == v and e.profile == profile})
    return huffman(p_verb), profile_tables, payload_tables


def _oracle_bound(dist):
    rep = _oracle_entropy(dist)
    verb_table, profile_tables, payload_tables = _oracle_tables(dist)
    p_verb, p_vo = {}, {}
    for e in dist.entries:
        p_verb[e.verb] = p_verb.get(e.verb, 0.0) + e.prob
        p_vo[(e.verb, e.profile)] = (
            p_vo.get((e.verb, e.profile), 0.0) + e.prob)
    code_bits = verb_table.expected_length
    for v, pv in sorted(p_verb.items()):
        code_bits += pv * profile_tables[v].expected_length
    for (v, profile), pvo in sorted(p_vo.items()):
        code_bits += pvo * payload_tables[(v, profile)].expected_length
    e_k = math.fsum(e.prob * len(e.profile) for e in dist.entries)
    wire_bits = math.fsum(e.prob * e.wire_bits for e in dist.entries)
    expected_total = FIXED_FRAMING_BITS + INDEX_BITS + code_bits
    return cz.BoundReport(
        entropy_bits=rep.h_total,
        fixed_framing_bits=FIXED_FRAMING_BITS,
        index_bits=INDEX_BITS,
        expected_code_bits=code_bits,
        expected_total_bits=expected_total,
        bound_bits=(rep.h_total + FIXED_FRAMING_BITS + INDEX_BITS
                    + HUFFMAN_SLACK_BITS),
        expected_option_count=e_k,
        refined_index_bits=e_k * INDEX_BITS,
        expected_wire_bits=wire_bits,
        alignment_slack_bits=wire_bits - expected_total,
        tables=1 + len(profile_tables) + len(payload_tables),
    )


@st.composite
def _grouped_distributions(draw):
    """Up to 4 x 6 (verb, profile) contexts, most holding several
    payloads, so marginals sum many entries."""
    profiles = draw(st.lists(
        st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)),
                 max_size=2).map(tuple),
        min_size=1, max_size=6, unique=True))
    symbols = draw(st.lists(
        st.tuples(st.sampled_from(list(V)), st.sampled_from(profiles),
                  st.binary(max_size=2)),
        min_size=1, max_size=80, unique=True))
    weights = draw(st.lists(st.floats(1e-3, 1.0), min_size=len(symbols),
                            max_size=len(symbols)))
    total = sum(weights)
    return MessageDistribution([
        DistEntry(v, o, p, w / total) for (v, o, p), w in zip(symbols, weights)
    ])


@settings(max_examples=200, deadline=None)
@given(_grouped_distributions())
def test_grouped_pass_equals_the_per_context_rescans(d):
    assert entropy(d) == _oracle_entropy(d)
    got, want = build_tables(d), _oracle_tables(d)
    assert got[0].codewords == want[0].codewords
    assert got[0].expected_length == want[0].expected_length
    for mine, theirs in zip(got[1:], want[1:]):
        assert mine.keys() == theirs.keys()
        for key, table in mine.items():
            assert table.codewords == theirs[key].codewords
            assert table.expected_length == theirs[key].expected_length
    assert check_bound(d).to_json() == _oracle_bound(d).to_json()
