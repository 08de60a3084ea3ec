"""Entropy analysis of message traffic and the compression bound.

A traffic distribution assigns probability to whole message shapes:
the verb, the option profile (the ordered tuple of (code, length)
pairs), and the payload bytes.  Its entropy decomposes by the chain
rule

    H = H(verb) + H(profile | verb) + H(payload | verb, profile)

and each factor gets its own Huffman code (one code per conditioning
context).  The theoretical encoder spends a fixed header budget, one
flat ceil(log2 k_max)-bit index for the option-type space, and the
three Huffman codes; since every Huffman code loses strictly less than
one bit to its entropy, the expected total is provably below

    H + header_bits + ceil(log2 k_max) + 3.

check_bound() evaluates both sides on a concrete distribution.  The
byte-aligned wire format's expected size is reported next to it; the
gap is the price of byte alignment and explicit length fields, and on
degenerate distributions (say, a single message repeated forever) it
can go negative because fixed framing still carries bits the entropy
code no longer needs.

A distribution file is the JSON form of `MessageDistribution`, read by
the typed reader in `schema.py`: {"entries": [{"verb": "TELL",
"options": [[code, length], ...], "payload_hex": "...", "prob": p}]}.
`MessageDistribution.__post_init__` checks the probabilities and judges
each entry by the codec's own rules (`wire.profile_faults`).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from itertools import groupby
from operator import attrgetter

from . import schema
from .wire import K_MAX, Message, Verb, encoded_size, profile_faults

#: Fixed per-message framing the theoretical encoder pays: the 64-bit
#: header plus the option-count and payload-length fields (8 + 16 bits).
FIXED_FRAMING_BITS = 88
INDEX_BITS = math.ceil(math.log2(K_MAX))
HUFFMAN_SLACK_BITS = 3

Profile = tuple[tuple[int, int], ...]


class CompressionError(ValueError):
    pass


class EmptyCorpus(CompressionError):
    pass


@dataclass(frozen=True)
class DistEntry:
    verb: Verb
    profile: Profile = field(metadata={"json": "options"})
    payload: bytes = field(metadata={"json": "payload_hex"})
    prob: float

    @property
    def symbol(self) -> tuple:
        return (self.verb, self.profile, self.payload)

    @property
    def wire_bits(self) -> int:
        return encoded_size(self.profile, len(self.payload)) * 8


@dataclass(frozen=True)
class MessageDistribution(schema.Config):
    """A finite-support probability distribution over message shapes,
    its entries sorted by symbol."""

    entries: tuple[DistEntry, ...]

    MAX_SUPPORT = 100_000
    PROB_TOL = 1e-9

    def __post_init__(self) -> None:
        entries = self.entries
        if not entries:
            raise EmptyCorpus("distribution has no entries")
        if len(entries) > self.MAX_SUPPORT:
            raise CompressionError(
                f"support of {len(entries)} exceeds {self.MAX_SUPPORT}"
            )
        seen = set()
        for i, e in enumerate(entries):
            if not math.isfinite(e.prob):
                raise CompressionError(
                    f"entries[{i}]: probability {e.prob} is not finite")
            if e.prob <= 0:
                raise CompressionError(
                    f"entries[{i}]: nonpositive probability {e.prob}")
            Verb(e.verb)
            for fault in profile_faults(e.profile, len(e.payload)):
                raise CompressionError(f"entries[{i}]: {fault}")
            if e.symbol in seen:
                raise CompressionError(
                    f"entries[{i}]: duplicate symbol {e.symbol}")
            seen.add(e.symbol)
        total = math.fsum(e.prob for e in entries)
        if abs(total - 1.0) > self.PROB_TOL:
            raise CompressionError(f"probabilities sum to {total!r}, not 1")
        object.__setattr__(
            self, "entries", tuple(sorted(entries, key=lambda e: e.symbol))
        )

    def __len__(self) -> int:
        return len(self.entries)

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_counts(cls, counts: dict[tuple, int]) -> "MessageDistribution":
        total = sum(counts.values())
        if total <= 0:
            raise EmptyCorpus("no observations")
        return cls(
            [
                DistEntry(v, profile, payload, c / total)
                for (v, profile, payload), c in counts.items()
            ]
        )


def symbol_of(m: Message) -> tuple:
    return (
        int(m.header.verb),
        tuple((o.code, len(o.value)) for o in m.options),
        m.payload,
    )


# -- entropy -----------------------------------------------------------------


def _h(probs) -> float:
    return -math.fsum(p * math.log2(p) for p in probs if p > 0)


def _contexts(dist: MessageDistribution) -> dict:
    """verb -> (P(verb), profile -> (P(verb, profile), payload -> p)),
    in symbol order, from one walk over the sorted entries.  Each
    marginal is summed with `+=` in entry order: a different order can
    change the last bit of a float in the pinned check-bound report."""
    contexts: dict = {}
    for verb, of_verb in groupby(dist.entries, attrgetter("verb")):
        pv = 0.0
        profiles: dict = {}
        for profile, of_context in groupby(of_verb, attrgetter("profile")):
            pvo = 0.0
            payloads = {}
            for e in of_context:
                pv += e.prob
                pvo += e.prob
                payloads[e.payload] = e.prob
            profiles[profile] = (pvo, payloads)
        contexts[verb] = (pv, profiles)
    return contexts


@dataclass(frozen=True)
class EntropyReport:
    h_verb: float
    h_profile_given_verb: float
    h_payload_given_rest: float

    @property
    def h_total(self) -> float:
        return (
            self.h_verb
            + self.h_profile_given_verb
            + self.h_payload_given_rest
        )


def _entropy(contexts: dict) -> EntropyReport:
    """Chain-rule decomposition by direct summation (no sampling)."""
    h_v = _h(pv for pv, _ in contexts.values())
    h_o = h_p = 0.0
    for pv, profiles in contexts.values():
        h_o += pv * _h(pvo / pv for pvo, _ in profiles.values())
        for pvo, payloads in profiles.values():
            h_p += pvo * _h(p / pvo for p in payloads.values())
    return EntropyReport(h_v, h_o, h_p)


# -- Huffman coding -----------------------------------------------------------


@dataclass(frozen=True)
class HuffmanTable:
    codewords: dict
    expected_length: float
    entropy: float


def huffman(weights: dict) -> HuffmanTable:
    """Optimal prefix code with deterministic tie-breaking (ties merge
    in sorted-symbol insertion order).  A single-symbol alphabet gets
    the empty codeword: zero bits carry zero information."""
    if not weights:
        raise CompressionError("empty alphabet")
    syms = sorted(weights)
    total = math.fsum(weights.values())
    probs = {s: weights[s] / total for s in syms}
    codes = {s: "" for s in syms}
    if len(syms) > 1:
        # Record the merge tree (a node is a symbol's index or the pair
        # it merged, "0" side first) and write each codeword once in a
        # walk from the root: prepending at every merge would cost the
        # sum of the squared codeword lengths.
        heap: list[tuple[float, int, object]] = [
            (probs[s], i, i) for i, s in enumerate(syms)
        ]
        heapq.heapify(heap)
        stamp = len(syms)
        while len(heap) > 1:
            w0, _, node0 = heapq.heappop(heap)
            w1, _, node1 = heapq.heappop(heap)
            heapq.heappush(heap, (w0 + w1, stamp, (node0, node1)))
            stamp += 1
        stack = [(heap[0][2], "")]
        while stack:
            node, code = stack.pop()
            if isinstance(node, int):
                codes[syms[node]] = code
            else:
                stack.append((node[0], code + "0"))
                stack.append((node[1], code + "1"))
    expected = math.fsum(probs[s] * len(codes[s]) for s in syms)
    return HuffmanTable(
        codewords=codes,
        expected_length=expected,
        entropy=_h(probs.values()),
    )


# -- the bound ---------------------------------------------------------------


@dataclass(frozen=True)
class BoundReport:
    entropy_bits: float
    fixed_framing_bits: int
    index_bits: int
    expected_code_bits: float     # the three Huffman stages together
    expected_total_bits: float    # framing + index + code
    bound_bits: float             # H + framing + index + slack
    expected_option_count: float
    refined_index_bits: float     # E[option count] * index_bits, reported
    expected_wire_bits: float     # actual byte-aligned format
    alignment_slack_bits: float   # wire - theoretical (can be negative
                                  # on degenerate distributions)
    tables: int = field(metadata={"json": "huffman_tables"})

    @property
    def ok(self) -> bool:
        return self.expected_total_bits <= self.bound_bits + 1e-6

    def to_json(self) -> dict:
        return {**schema.to_json(self), "bound_holds": self.ok}


def build_tables(
    dist: MessageDistribution,
) -> tuple[HuffmanTable, dict, dict]:
    """One verb table, one profile table per verb, one payload table
    per (verb, profile) context."""
    return _build_tables(_contexts(dist))


def _build_tables(contexts: dict) -> tuple[HuffmanTable, dict, dict]:
    verb_table = huffman({v: pv for v, (pv, _) in contexts.items()})
    profile_tables: dict[int, HuffmanTable] = {}
    payload_tables: dict[tuple, HuffmanTable] = {}
    for v, (_, profiles) in contexts.items():
        profile_tables[v] = huffman(
            {o: pvo for o, (pvo, _) in profiles.items()})
        for o, (_, payloads) in profiles.items():
            payload_tables[(v, o)] = huffman(payloads)
    return verb_table, profile_tables, payload_tables


def check_bound(dist: MessageDistribution) -> BoundReport:
    """Evaluate the expected compressed size against the entropy bound."""
    contexts = _contexts(dist)
    rep = _entropy(contexts)
    verb_table, profile_tables, payload_tables = _build_tables(contexts)

    code_bits = verb_table.expected_length
    for v, (pv, _) in contexts.items():
        code_bits += pv * profile_tables[v].expected_length
    for v, (_, profiles) in contexts.items():
        for o, (pvo, _) in profiles.items():
            code_bits += pvo * payload_tables[(v, o)].expected_length

    e_k = math.fsum(e.prob * len(e.profile) for e in dist.entries)
    wire_bits = math.fsum(e.prob * e.wire_bits for e in dist.entries)
    expected_total = FIXED_FRAMING_BITS + INDEX_BITS + code_bits
    return BoundReport(
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
