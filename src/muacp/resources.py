"""Resource vectors, budgets, and message cost accounting.

Four resource dimensions are tracked: memory (bytes held), bandwidth
(bytes moved), cpu (abstract work units), energy (abstract units).
Quantities are exact rationals so that charge/refund sequences are
associative and order-independent; floating point would let a long
simulation drift across the feasibility boundary.  An agent keeps its
budget in a `BudgetLedger`: four integers over one common denominator
of its budget and cost model, so a charge is integer arithmetic and
still exact.  `ResourceBudget` is the reference the ledger must equal.

Memory is the only dimension that is refunded: buffering a message
charges memory transiently and evicting it from the history ring
refunds the same amount.  Bandwidth, cpu, and energy are cumulative.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .schema import Config

DIMENSIONS = ("memory", "bandwidth", "cpu", "energy")

Rational = int | float | str | Fraction


def _frac(x: Rational) -> Fraction:
    """Exact conversion; decimal strings and floats go through their
    shortest decimal representation rather than the raw binary float."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(str(x))
    return Fraction(x)


class ResourceError(Exception):
    pass


class NegativeResource(ResourceError, ValueError):
    """A vector component went below zero."""


class InfeasibleCharge(ResourceError):
    """Charging would exceed the remaining budget; state is unchanged.
    Args `(cost, remaining, d)`, amounts over `d`; text built when read."""

    def __str__(self) -> str:
        # x / d of ints is correctly rounded: it is float(Fraction(x, d)).
        cost, remaining, d = self.args
        cost, remaining = [{k: float(x / d) for k, x in zip(DIMENSIONS, v)}
                           for v in (cost, remaining)]
        return f"cost {cost} exceeds remaining {remaining}"


@dataclass(frozen=True)
class ResourceVector:
    """A point in the four-dimensional resource space, componentwise
    non-negative."""

    memory: Fraction = Fraction(0)
    bandwidth: Fraction = Fraction(0)
    cpu: Fraction = Fraction(0)
    energy: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        for name in DIMENSIONS:
            v = _frac(getattr(self, name))
            if v < 0:
                raise NegativeResource(f"{name}={v} is negative")
            object.__setattr__(self, name, v)

    @classmethod
    def of(
        cls,
        memory: Rational = 0,
        bandwidth: Rational = 0,
        cpu: Rational = 0,
        energy: Rational = 0,
    ) -> "ResourceVector":
        return cls(_frac(memory), _frac(bandwidth), _frac(cpu), _frac(energy))

    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(
            self.memory + other.memory,
            self.bandwidth + other.bandwidth,
            self.cpu + other.cpu,
            self.energy + other.energy,
        )

    def __sub__(self, other: "ResourceVector") -> "ResourceVector":
        # Raises NegativeResource if any component would go negative.
        return ResourceVector(
            self.memory - other.memory,
            self.bandwidth - other.bandwidth,
            self.cpu - other.cpu,
            self.energy - other.energy,
        )

    def __le__(self, other: "ResourceVector") -> bool:
        """Componentwise order; this is a partial order, so (a <= b) and
        (b <= a) can both be false."""
        return (
            self.memory <= other.memory
            and self.bandwidth <= other.bandwidth
            and self.cpu <= other.cpu
            and self.energy <= other.energy
        )

    def __ge__(self, other: "ResourceVector") -> bool:
        return other.__le__(self)

    def as_tuple(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.memory, self.bandwidth, self.cpu, self.energy)


@dataclass(frozen=True)
class ResourceBudget:
    """A limit and what remains of it.

    Budgets are immutable; charge() and refund() return new budgets, so
    a failed charge cannot leave partial state behind.
    """

    limit: ResourceVector
    remaining: ResourceVector

    def __post_init__(self) -> None:
        if not self.remaining <= self.limit:
            raise ResourceError("remaining exceeds limit")

    @classmethod
    def full(cls, limit: ResourceVector) -> "ResourceBudget":
        return cls(limit, limit)

    @property
    def spent(self) -> ResourceVector:
        return self.limit - self.remaining

    def feasible(self, cost: ResourceVector) -> bool:
        return cost <= self.remaining

    def charge(self, cost: ResourceVector) -> "ResourceBudget":
        if not self.feasible(cost):
            raise InfeasibleCharge(
                cost.as_tuple(), self.remaining.as_tuple(), 1)
        return ResourceBudget(self.limit, self.remaining - cost)

    def refund(self, amount: ResourceVector) -> "ResourceBudget":
        """Return previously charged resources (memory eviction).  The
        result is capped by the limit: refunding more than was spent is
        an accounting bug and raises."""
        new_remaining = self.remaining + amount
        if not new_remaining <= self.limit:
            raise ResourceError("refund exceeds amount spent")
        return ResourceBudget(self.limit, new_remaining)


UNBOUNDED = ResourceBudget.full(
    ResourceVector.of(10**12, 10**12, 10**12, 10**12)
)


@dataclass(frozen=True)
class CostModel(Config):
    """Affine cost of handling one message of a given wire size.

    cost(size) = (buffer_per_byte * size,
                  per_byte_bandwidth * size,
                  per_message_cpu + per_byte_cpu * size,
                  per_message_energy + per_byte_energy * size)

    The default model charges bandwidth alone, one unit per wire byte,
    which makes consumption equal the true transmission size.
    """

    per_byte_bandwidth: Fraction = Fraction(1)
    per_byte_cpu: Fraction = Fraction(0)
    per_message_cpu: Fraction = Fraction(0)
    per_byte_energy: Fraction = Fraction(0)
    per_message_energy: Fraction = Fraction(0)
    buffer_per_byte: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        coefficients = []
        for name in self.__dataclass_fields__:
            v = _frac(getattr(self, name))
            if v < 0:
                raise NegativeResource(f"{name}={v} is negative")
            object.__setattr__(self, name, v)
            coefficients.append(v)
        # The coefficients as integers over their least common
        # denominator, in field order after it; BudgetLedger reads them.
        d = lcm(*(v.denominator for v in coefficients))
        object.__setattr__(self, "_scaled", (d, *(
            v.numerator * (d // v.denominator) for v in coefficients)))

    def cost_of_size(self, size: int) -> ResourceVector:
        if size < 0:
            raise ValueError("negative message size")
        return ResourceVector(
            self.buffer_per_byte * size,
            self.per_byte_bandwidth * size,
            self.per_message_cpu + self.per_byte_cpu * size,
            self.per_message_energy + self.per_byte_energy * size,
        )

    def cost_of(self, msg) -> ResourceVector:
        """Cost of one message; accepts anything exposing wire_size."""
        return self.cost_of_size(msg.wire_size)

    def buffer_memory(self, size: int) -> ResourceVector:
        """The transient (refundable) part of the cost."""
        return ResourceVector(memory=self.buffer_per_byte * size)


class BudgetLedger:
    """A `ResourceBudget` charged by message size under a `CostModel`,
    kept as integers over one common denominator.

    `denominator` is the least common multiple of the model's
    denominator and those of the budget's limit and remaining, so every
    cost `a + b * size` and every remaining amount is an exact integer
    multiple of `1 / denominator`.  `charge` and `refund` behave as
    `ResourceBudget.charge(model.cost_of_size(size))` and
    `ResourceBudget.refund(model.buffer_memory(size))`, with the same
    errors and messages, but change the ledger in place; a refused
    charge changes nothing and builds its message only when read.
    """

    __slots__ = (
        "denominator",
        "memory_limit", "bandwidth_limit", "cpu_limit", "energy_limit",
        "memory", "bandwidth", "cpu", "energy",
        "_buffer_per_byte", "_per_byte_bandwidth", "_per_byte_cpu",
        "_per_message_cpu", "_per_byte_energy", "_per_message_energy",
    )

    def __init__(self, budget: ResourceBudget, model: CostModel) -> None:
        amounts = budget.limit.as_tuple() + budget.remaining.as_tuple()
        d_model, *coefficients = model._scaled
        d = lcm(d_model, *[x.denominator for x in amounts])
        k = d // d_model
        (self._per_byte_bandwidth, self._per_byte_cpu, self._per_message_cpu,
         self._per_byte_energy, self._per_message_energy,
         self._buffer_per_byte) = [c * k for c in coefficients]
        (self.memory_limit, self.bandwidth_limit, self.cpu_limit,
         self.energy_limit, self.memory, self.bandwidth, self.cpu,
         self.energy) = [x.numerator * (d // x.denominator) for x in amounts]
        self.denominator = d

    def _vector(self, memory, bandwidth, cpu, energy) -> ResourceVector:
        d = self.denominator
        return ResourceVector(Fraction(memory, d), Fraction(bandwidth, d),
                              Fraction(cpu, d), Fraction(energy, d))

    @property
    def remaining(self) -> ResourceVector:
        return self._vector(self.memory, self.bandwidth, self.cpu, self.energy)

    @property
    def budget(self) -> ResourceBudget:
        return ResourceBudget(
            self._vector(self.memory_limit, self.bandwidth_limit,
                         self.cpu_limit, self.energy_limit),
            self.remaining,
        )

    def charge(self, size: int) -> None:
        """Pay for one message of `size` wire bytes, or raise
        InfeasibleCharge and change nothing."""
        if size < 0:
            raise ValueError("negative message size")
        memory = self._buffer_per_byte * size
        bandwidth = self._per_byte_bandwidth * size
        cpu = self._per_message_cpu + self._per_byte_cpu * size
        energy = self._per_message_energy + self._per_byte_energy * size
        if (memory > self.memory or bandwidth > self.bandwidth
                or cpu > self.cpu or energy > self.energy):
            raise InfeasibleCharge(
                (memory, bandwidth, cpu, energy),
                (self.memory, self.bandwidth, self.cpu, self.energy),
                self.denominator)
        self.memory -= memory
        self.bandwidth -= bandwidth
        self.cpu -= cpu
        self.energy -= energy

    def refund(self, size: int) -> None:
        """Return the buffer memory of one evicted message of `size`
        wire bytes, a size charged before; a model without buffer
        memory refunds nothing."""
        if self._buffer_per_byte:
            memory = self.memory + self._buffer_per_byte * size
            if memory > self.memory_limit:
                raise ResourceError("refund exceeds amount spent")
            self.memory = memory
