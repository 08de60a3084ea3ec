"""Exact accounting: vectors, budgets, ledgers, cost models."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from muacp import resources, wire
from muacp.resources import (
    BudgetLedger,
    CostModel,
    InfeasibleCharge,
    NegativeResource,
    ResourceBudget,
    ResourceError,
    ResourceVector,
)


def test_default_model_charges_bandwidth_per_byte():
    # empty ping is 11 wire bytes; the default model prices nothing else
    model = CostModel()
    cost = model.cost_of(wire.message(wire.Verb.PING))
    assert cost.as_tuple() == (
        Fraction(0), Fraction(11), Fraction(0), Fraction(0)
    )


def test_cost_scales_affinely_with_size():
    model = CostModel(
        per_message_cpu=2,
        per_byte_cpu="0.5",
        per_byte_bandwidth=1,
        per_message_energy="0.25",
    )
    c = model.cost_of_size(10)
    assert c.cpu == Fraction(2) + Fraction(1, 2) * 10
    assert c.bandwidth == 10
    assert c.energy == Fraction(1, 4)


def test_float_coefficients_parse_exactly():
    # 0.1 the decimal string, not 0.1 the double
    model = CostModel(per_byte_energy=0.1)
    total = model.cost_of_size(1).energy * 10
    assert total == 1


def test_vector_rejects_negative_components():
    with pytest.raises(NegativeResource):
        ResourceVector(memory=-1)
    v = ResourceVector.of(1, 1, 1, 1)
    with pytest.raises(NegativeResource):
        v - ResourceVector.of(2, 0, 0, 0)


def test_partial_order_is_componentwise():
    lo = ResourceVector.of(1, 2, 3, 4)
    hi = ResourceVector.of(2, 2, 3, 4)
    mixed = ResourceVector.of(0, 9, 0, 0)
    assert lo <= hi and not hi <= lo
    assert not lo <= mixed and not mixed <= lo


def test_budget_charge_and_refund():
    b = ResourceBudget.full(ResourceVector.of(100, 100, 100, 100))
    b2 = b.charge(ResourceVector.of(10, 0, 0, 0))
    assert b2.spent.memory == 10
    assert b.spent.memory == 0          # original untouched
    b3 = b2.refund(ResourceVector.of(10, 0, 0, 0))
    assert b3.remaining == b.remaining
    with pytest.raises(ResourceError):
        b3.refund(ResourceVector.of(1, 0, 0, 0))


def test_infeasible_charge_not_applied():
    b = ResourceBudget.full(ResourceVector.of(5, 5, 5, 5))
    with pytest.raises(InfeasibleCharge):
        b.charge(ResourceVector.of(6, 0, 0, 0))
    assert b.remaining == b.limit


small = st.integers(0, 20)
vec_st = st.builds(ResourceVector.of, small, small, small, small)


@given(st.lists(vec_st, max_size=30))
def test_sum_is_permutation_invariant(vs):
    total = ResourceVector()
    for v in vs:
        total = total + v
    rev = ResourceVector()
    for v in reversed(vs):
        rev = rev + v
    assert total == rev


@settings(max_examples=200)
@given(st.lists(vec_st, max_size=40))
def test_remaining_never_negative_under_feasible_charges(vs):
    b = ResourceBudget.full(ResourceVector.of(200, 200, 200, 200))
    for v in vs:
        if b.feasible(v):
            b = b.charge(v)
        else:
            with pytest.raises(InfeasibleCharge):
                b.charge(v)
        assert b.remaining >= ResourceVector()
        assert b.spent + b.remaining == b.limit


# -- the integer ledger against the exact reference ------------------------------

coefficient_st = st.just(Fraction(0)) | st.builds(
    Fraction, st.integers(0, 6), st.sampled_from([1, 2, 3, 7, 11, 12])
)
model_st = st.builds(
    CostModel,
    per_byte_bandwidth=coefficient_st,
    per_byte_cpu=coefficient_st,
    per_message_cpu=coefficient_st,
    per_byte_energy=coefficient_st,
    per_message_energy=coefficient_st,
    buffer_per_byte=coefficient_st,
)
amount_st = st.builds(
    Fraction, st.integers(0, 3000), st.sampled_from([1, 2, 5, 9])
)


@st.composite
def budget_st(draw):
    limit = [draw(amount_st) for _ in range(4)]
    left = [x * draw(st.fractions(0, 1, max_denominator=7)) for x in limit]
    return ResourceBudget(ResourceVector(*limit), ResourceVector(*left))


def _attempt(step, arg):
    """(result, None) or (None, (error type, message))."""
    try:
        return step(arg), None
    except ResourceError as e:
        return None, (type(e), str(e))


@settings(max_examples=300)
@given(
    model_st,
    budget_st(),
    st.lists(st.tuples(st.booleans(), st.integers(0, 120)), max_size=40),
)
def test_ledger_equals_the_exact_budget_fold(model, budget, steps):
    ledger = BudgetLedger(budget, model)
    assert ledger.budget == budget
    for is_charge, size in steps:
        if is_charge:
            new, want = _attempt(budget.charge, model.cost_of_size(size))
            _, got = _attempt(ledger.charge, size)
        else:
            new, want = _attempt(budget.refund, model.buffer_memory(size))
            _, got = _attempt(ledger.refund, size)
        assert got == want
        budget = budget if new is None else new
        assert ledger.budget == budget


@settings(max_examples=200)
@given(model_st, budget_st(), st.integers(0, 4000))
def test_refused_ledger_charge_builds_its_text_from_integers(
        model, budget, size):
    _, want = _attempt(budget.charge, model.cost_of_size(size))
    assume(want is not None)
    ledger = BudgetLedger(budget, model)

    def forbidden(*args, **kwargs):
        raise AssertionError("a refusal built a Fraction or a vector")

    with pytest.MonkeyPatch.context() as mp:
        for owner, name in ((resources, "Fraction"),
                            (ResourceVector, "__post_init__"),
                            (BudgetLedger, "_vector"),
                            (CostModel, "cost_of_size")):
            mp.setattr(owner, name, forbidden)
        with pytest.raises(InfeasibleCharge) as e:
            ledger.charge(size)
        got = (type(e.value), str(e.value))
    assert got == want
    assert ledger.budget == budget
