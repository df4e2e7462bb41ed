"""Core data model for chore-division markets.

Instances hold a disutility matrix with a dislike threshold ``tau`` (entries at
or above the threshold are stored as ``None`` and are forbidden in any
allocation), plus either an endowment matrix (exchange variant) or a fixed
earning vector with chore supplies (fixed-earnings variant).  All exact
quantities are :class:`fractions.Fraction`; float vectors appear only in
candidates tagged with ``mode="float"``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence, Union

import numpy as np

from .errors import (
    DimensionMismatch,
    Infeasible,
    Malformed,
    ZeroPriceSum,
)

EXCHANGE = "exchange"
FIXED_EARNINGS = "fixed_earnings"

#: Marker for a disutility at or above the threshold.
INFINITE = None

Number = Union[Fraction, int, float]


def to_fraction(value) -> Fraction:
    """Convert ints, strings like ``"3/4"``, and Fractions to a Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise Malformed(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise Malformed(f"bad rational literal: {value!r}") from exc
    raise Malformed(f"not a rational: {value!r}")


def format_rational(value: Fraction) -> str:
    """Encode a Fraction as a ``"num/den"`` string."""
    frac = Fraction(value)
    return f"{frac.numerator}/{frac.denominator}"


def _freeze_matrix(rows) -> tuple:
    return tuple(tuple(row) for row in rows)


def _read_only(values) -> np.ndarray:
    array = np.array(values, dtype=float)
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class Instance:
    """A chore-division market.

    ``disutility[i][j]`` is agent ``i``'s per-unit cost for chore ``j`` or
    ``None`` when the pair is forbidden (cost at least ``tau``).  Exactly one
    of ``endowment`` (exchange) or ``earning`` (fixed earnings, with per-chore
    ``supply``) is present depending on ``variant``.
    """

    variant: str
    tau: Fraction
    disutility: tuple
    endowment: Optional[tuple] = None
    earning: Optional[tuple] = None
    supply: Optional[tuple] = None

    def __post_init__(self):
        if self.variant not in (EXCHANGE, FIXED_EARNINGS):
            raise Malformed(f"unknown variant {self.variant!r}")
        if not isinstance(self.tau, Fraction) or self.tau <= 0:
            raise Malformed("tau must be a positive rational")
        d = _freeze_matrix(self.disutility)
        object.__setattr__(self, "disutility", d)
        if not d or not d[0]:
            raise Malformed("instance needs at least one agent and one chore")
        m = len(d[0])
        for row in d:
            if len(row) != m:
                raise Malformed("ragged disutility matrix")
            for entry in row:
                if entry is None:
                    continue
                if not isinstance(entry, Fraction):
                    raise Malformed("disutility entries must be Fraction or None")
                if entry <= 0:
                    raise Malformed("finite disutility must be strictly positive")
                if entry >= self.tau:
                    raise Malformed(
                        "finite disutility must be strictly below tau; "
                        "use None for hugely disliked pairs"
                    )
        n = len(d)
        if self.variant == EXCHANGE:
            if self.endowment is None or self.earning is not None or self.supply is not None:
                raise Malformed("exchange variant takes exactly an endowment matrix")
            w = _freeze_matrix(self.endowment)
            object.__setattr__(self, "endowment", w)
            if len(w) != n or any(len(row) != m for row in w):
                raise DimensionMismatch("endowment shape must match disutility")
            for row in w:
                for entry in row:
                    if not isinstance(entry, Fraction) or entry < 0:
                        raise Malformed("endowments must be nonnegative rationals")
            for j in range(m):
                if sum(row[j] for row in w) <= 0:
                    raise Malformed(f"chore {j} has zero total endowment")
        else:
            if self.endowment is not None or self.earning is None:
                raise Malformed("fixed-earnings variant takes an earning vector")
            e = tuple(self.earning)
            object.__setattr__(self, "earning", e)
            if len(e) != n:
                raise DimensionMismatch("earning length must match agent count")
            for entry in e:
                if not isinstance(entry, Fraction) or entry < 0:
                    raise Malformed("earnings must be nonnegative rationals")
            s = tuple(self.supply) if self.supply is not None else tuple([Fraction(1)] * m)
            object.__setattr__(self, "supply", s)
            if len(s) != m:
                raise DimensionMismatch("supply length must match chore count")
            for entry in s:
                if not isinstance(entry, Fraction) or entry <= 0:
                    raise Malformed("supplies must be positive rationals")

    @property
    def n(self) -> int:
        return len(self.disutility)

    @property
    def m(self) -> int:
        return len(self.disutility[0])

    def finite_chores(self, agent: int) -> tuple:
        """Indices of chores agent can do (disutility below the threshold)."""
        return tuple(j for j, dij in enumerate(self.disutility[agent]) if dij is not None)

    def has_positive_wealth(self, agent: int) -> bool:
        """Whether the agent can ever owe money (positive earning/endowment)."""
        if self.variant == FIXED_EARNINGS:
            return self.earning[agent] > 0
        return any(w > 0 for w in self.endowment[agent])

    def to_exchange(self) -> "Instance":
        """Equivalent exchange instance of a fixed-earnings market.

        Agent ``i`` receives the endowment ``e_i * supply_j / E`` of every
        chore ``j`` where ``E`` is the total earning, so chore supplies are
        preserved and budgets are proportional to earnings.  Prices of any
        equilibrium of the result, rescaled so the total supply value equals
        ``E``, give budgets equal to the original earnings.
        """
        if self.variant == EXCHANGE:
            return self
        total = sum(self.earning)
        if total <= 0:
            raise Infeasible("all earnings are zero; no exchange equivalent")
        w = [
            [self.earning[i] * self.supply[j] / total for j in range(self.m)]
            for i in range(self.n)
        ]
        return Instance(EXCHANGE, self.tau, self.disutility, endowment=_freeze_matrix(w))

    @cached_property
    def float_supply(self) -> np.ndarray:
        """Chore supplies as floats (read-only): each exact total, rounded once."""
        return _read_only([float(chore_supply(self, j)) for j in range(self.m)])

    @cached_property
    def float_wealth(self) -> np.ndarray:
        """The endowment matrix, or the earning vector, as floats (read-only)."""
        if self.variant == FIXED_EARNINGS:
            return _read_only([float(e) for e in self.earning])
        return _read_only([[float(w) for w in row] for row in self.endowment])

    def float_budgets(self, p: np.ndarray) -> np.ndarray:
        """Every agent's budget at float prices ``p``.

        The float data is converted once per instance.  Exchange budgets add
        ``w_ij * p_j`` in chore order, as :func:`agent_budget` does, so each
        entry equals ``float(agent_budget(inst, i, p))`` bit for bit.
        """
        if self.variant == FIXED_EARNINGS:
            return self.float_wealth
        return np.add.accumulate(self.float_wealth * p, axis=1)[:, -1]


def exchange_instance(tau, disutility, endowment) -> Instance:
    """Build an exchange instance from plain int/str/Fraction data."""
    return Instance(
        EXCHANGE,
        to_fraction(tau),
        _freeze_matrix(
            [[None if x is None else to_fraction(x) for x in row] for row in disutility]
        ),
        endowment=_freeze_matrix([[to_fraction(x) for x in row] for row in endowment]),
    )


def fixed_earnings_instance(tau, disutility, earning, supply=None) -> Instance:
    """Build a fixed-earnings instance from plain int/str/Fraction data."""
    return Instance(
        FIXED_EARNINGS,
        to_fraction(tau),
        _freeze_matrix(
            [[None if x is None else to_fraction(x) for x in row] for row in disutility]
        ),
        earning=tuple(to_fraction(x) for x in earning),
        supply=None if supply is None else tuple(to_fraction(x) for x in supply),
    )


def normalize_prices(p: Sequence[Fraction]) -> tuple:
    """Scale a nonnegative price vector so its entries sum to one."""
    total = sum(Fraction(x) for x in p)
    if total <= 0:
        raise ZeroPriceSum("cannot normalize an all-zero price vector")
    return tuple(Fraction(x) / total for x in p)


def agent_budget(inst: Instance, agent: int, p: Sequence[Number]):
    """Money the agent must earn at prices ``p``.

    Exchange: value of the agent's endowment.  Fixed earnings: the fixed
    earning, independent of prices.
    """
    if not 0 <= agent < inst.n:
        raise DimensionMismatch(f"agent index {agent} out of range")
    if inst.variant == FIXED_EARNINGS:
        return inst.earning[agent]
    if len(p) != inst.m:
        raise DimensionMismatch("price vector length must match chore count")
    return sum(w * pj for w, pj in zip(inst.endowment[agent], p))


def chore_supply(inst: Instance, chore: int) -> Fraction:
    """Total amount of the chore that must be done."""
    if not 0 <= chore < inst.m:
        raise DimensionMismatch(f"chore index {chore} out of range")
    if inst.variant == FIXED_EARNINGS:
        return inst.supply[chore]
    return sum(row[chore] for row in inst.endowment)


EXACT = "exact"
FLOAT = "float"


@dataclass(frozen=True)
class EquilibriumCandidate:
    """Prices plus an allocation, with an optional explicit money flow.

    ``mode`` tags the numeric representation: ``"exact"`` candidates carry
    Fractions and are compared exactly, ``"float"`` candidates carry binary
    floats and are verified within tolerances.
    """

    prices: tuple
    allocation: tuple
    flow: Optional[tuple] = None
    mode: str = EXACT

    def __post_init__(self):
        if self.mode not in (EXACT, FLOAT):
            raise Malformed(f"unknown numeric mode {self.mode!r}")
        object.__setattr__(self, "prices", tuple(self.prices))
        object.__setattr__(self, "allocation", _freeze_matrix(self.allocation))
        m = len(self.prices)
        for row in self.allocation:
            if len(row) != m:
                raise DimensionMismatch("allocation width must match price length")
        if self.flow is not None:
            f = _freeze_matrix(self.flow)
            object.__setattr__(self, "flow", f)
            if len(f) != len(self.allocation) or any(len(row) != m for row in f):
                raise DimensionMismatch("flow shape must match allocation")
            if self.mode == EXACT:
                for i, row in enumerate(f):
                    for j, fij in enumerate(row):
                        if fij != self.allocation[i][j] * self.prices[j]:
                            raise Malformed("flow must equal allocation times prices")

    @property
    def n(self) -> int:
        return len(self.allocation)

    @property
    def m(self) -> int:
        return len(self.prices)

    def money_flow(self) -> tuple:
        """The money-flow matrix ``f_ij = X_ij * p_j``."""
        if self.flow is not None:
            return self.flow
        return _freeze_matrix(
            [[x * p for x, p in zip(row, self.prices)] for row in self.allocation]
        )


# ---------------------------------------------------------------------------
# JSON encoding


def _encode_value(value, mode: str):
    if value is None:
        return None
    if mode == FLOAT:
        return float(value)
    return format_rational(value)


def _decode_value(value, mode: str):
    if value is None:
        return None
    if mode == FLOAT:
        return float(value)
    return to_fraction(value)


def instance_to_json(inst: Instance) -> dict:
    doc = {
        "variant": inst.variant,
        "tau": format_rational(inst.tau),
        "disutility": [
            [None if x is None else format_rational(x) for x in row]
            for row in inst.disutility
        ],
    }
    if inst.variant == EXCHANGE:
        doc["endowment"] = [[format_rational(x) for x in row] for row in inst.endowment]
    else:
        doc["earning"] = [format_rational(x) for x in inst.earning]
        doc["supply"] = [format_rational(x) for x in inst.supply]
    return doc


def instance_from_json(doc: dict) -> Instance:
    if not isinstance(doc, dict):
        raise Malformed("instance document must be a JSON object")
    if "instance" in doc:
        doc = doc["instance"]
    try:
        variant = doc["variant"]
        tau = doc["tau"]
        disutility = doc["disutility"]
        if variant == EXCHANGE:
            return exchange_instance(tau, disutility, doc["endowment"])
        if variant == FIXED_EARNINGS:
            return fixed_earnings_instance(tau, disutility, doc["earning"], doc.get("supply"))
    except KeyError as exc:
        raise Malformed(f"instance document missing field {exc}") from exc
    except TypeError as exc:
        raise Malformed(f"instance document has a badly shaped field: {exc}") from exc
    raise Malformed(f"unknown variant {variant!r}")


def candidate_to_json(cand: EquilibriumCandidate) -> dict:
    doc = {
        "mode": cand.mode,
        "prices": [_encode_value(p, cand.mode) for p in cand.prices],
        "allocation": [
            [_encode_value(x, cand.mode) for x in row] for row in cand.allocation
        ],
    }
    if cand.flow is not None:
        doc["flow"] = [[_encode_value(x, cand.mode) for x in row] for row in cand.flow]
    return doc


def candidate_from_json(doc: dict) -> EquilibriumCandidate:
    if not isinstance(doc, dict):
        raise Malformed("equilibrium document must be a JSON object")
    try:
        mode = doc.get("mode", EXACT)
        prices = [_decode_value(p, mode) for p in doc["prices"]]
        allocation = [[_decode_value(x, mode) for x in row] for row in doc["allocation"]]
        flow = None
        if "flow" in doc and doc["flow"] is not None:
            flow = [[_decode_value(x, mode) for x in row] for row in doc["flow"]]
    except KeyError as exc:
        raise Malformed(f"equilibrium document missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise Malformed(f"equilibrium document has a bad value: {exc}") from exc
    return EquilibriumCandidate(prices, allocation, flow=flow, mode=mode)


def save_json(doc: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)
