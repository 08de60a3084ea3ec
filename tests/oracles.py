"""Reference formulas and deliberately broken variants that the tests
and the release gates judge the program by.  Nothing in `src/` runs
them, so they live here."""

import math
from dataclasses import replace
from fractions import Fraction

from muacp.compression import (
    EntropyReport,
    HuffmanTable,
    MessageDistribution,
    _contexts,
    _entropy,
)
from muacp.fipa import Performative, PerformativeAction, translate
from muacp.wire import Message


def mutated_translate(action: PerformativeAction, cid: int) -> Message:
    """A deliberately wrong translation: a REQUEST is translated as an
    INFORM, losing its action content.  Exists so the checker's ability
    to reject bad translations is itself testable."""
    if action.performative is Performative.REQUEST:
        action = replace(action, performative=Performative.INFORM)
    return translate(action, cid)


def entropy(dist: MessageDistribution) -> EntropyReport:
    """The chain-rule parts of a distribution's entropy, by the sum
    `check_bound` reports only the total of."""
    return _entropy(_contexts(dist))


def joint_entropy(dist: MessageDistribution) -> float:
    """Entropy of the full joint distribution; equals the chain-rule
    total up to floating point."""
    return -math.fsum(e.prob * math.log2(e.prob) for e in dist.entries)


def kraft_sum(table: HuffmanTable) -> Fraction:
    """The exact Kraft sum of a table's codewords: at most 1 for every
    prefix code, and exactly 1 for a complete one."""
    return sum((Fraction(1, 2 ** len(w)) for w in table.codewords.values()),
               Fraction(0))


def suspicion_bound(
    crash_tick: int,
    ping_interval: int,
    timeout: int,
    delivery_bound: int,
) -> int:
    """Latest tick by which a correct detector must suspect a peer that
    crashed at crash_tick: one last in-flight pong may land as late as
    crash+delivery_bound, the next probe goes out within ping_interval,
    and that probe times out after `timeout` (plus one tick of loop
    granularity)."""
    return crash_tick + delivery_bound + ping_interval + timeout + 1
