"""Core data model for chore-division markets.

Instances hold a disutility matrix with a dislike threshold ``tau`` (entries at
or above the threshold are stored as ``None`` and are forbidden in any
allocation), plus either an endowment matrix (exchange variant) or a fixed
earning vector with chore supplies (fixed-earnings variant).  All exact
quantities are :class:`fractions.Fraction`; float vectors appear only in
candidates tagged with ``mode="float"``.  A candidate is prices plus an
allocation; the money agent ``i`` earns on chore ``j`` is their product
``allocation[i][j] * prices[j]``.

The package keeps one zero, ``_ZERO`` (from :mod:`choremarket.lp`): the
gadget builders, the candidate decoder and the literal parser hand it out
for every zero they make, and the dense per-entry loops (validation,
encoding, endowment sums, the exact check's cell scan) skip an entry that
``is`` it without calling a Fraction method.  Each such fast path falls
back to the full check (a truth test, an ``isinstance``, a comparison), so
a zero that is a fresh ``Fraction(0)`` or an int gives the same answer,
only slower.

Report and metadata documents come straight from their dataclasses through
:func:`_plain`.  :func:`instance_to_json` and :func:`candidate_to_json`
write every row through one array writer, :func:`_encode_values`: a
gadget's market and candidate hold thousands of entries, mostly zeros,
which it writes as ``"0/1"`` without formatting each, and a generic
recursion per entry would slow them.

Files and stdout get one text, :func:`_json_text`: the text of
``json.dumps(doc, indent=2, sort_keys=True)``, byte for byte.  It walks
dicts and lists in Python and writes each array of scalars (a matrix row,
a price vector, a label list) with one call of the C encoder, so a
gadget's thousands of entries cost one call per row instead of a step of
``json``'s pure-Python indenting encoder per entry.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Optional, Sequence, Union

from .errors import (
    DimensionMismatch,
    Infeasible,
    Malformed,
    NotGadget,
    ZeroPriceSum,
)
from .lp import _ZERO, _integer_row

EXCHANGE = "exchange"
FIXED_EARNINGS = "fixed_earnings"

#: Marker for a disutility at or above the threshold.
INFINITE = None

Number = Union[Fraction, int, float]


def to_fraction(value) -> Fraction:
    """Convert ints, rational literals and Fractions to a Fraction.

    A string is read as :class:`fractions.Fraction` reads it: ``"3/4"``,
    ``"-3/4"``, ``"+3/4"``, ``" 3/4 "``, ``"7"``, ``"1.5"`` or ``"1e3"``.
    Decoding is memoised over the 4,096 most recent literals, so a literal
    repeated within a document is parsed once.  Bools, floats and other
    types, strings ``Fraction`` rejects (including a zero denominator) and
    exponents past the integer digit limit (see :func:`_parse_rational`)
    raise :class:`Malformed`.
    """
    if isinstance(value, str):
        return _parse_rational(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise Malformed(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    raise Malformed(f"not a rational: {value!r}")


def to_int(value) -> int:
    """Return a JSON integer (an int that is not a bool) as it is; anything
    else, integral floats and numeric strings included, raises
    :class:`Malformed`."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise Malformed(f"not an integer: {value!r}")


def _finite_reals(values) -> bool:
    """Whether every value is a finite real number and none is a bool:
    ``None``, strings and ints past float range are not."""
    try:
        return bool not in map(type, values) and all(map(math.isfinite, values))
    except (TypeError, OverflowError):
        return False


def _tolerance(value):
    """``value`` if it is a finite nonnegative number, else :class:`Malformed`:
    with NaN every comparison is false, so a failing input would pass."""
    if not (_finite_reals((value,)) and value >= 0):
        raise Malformed(f"tolerance must be a finite nonnegative number: {value!r}")
    return value


def _epsilon(value) -> Fraction:
    """``value`` as an exact rational in ``[0, 1)`` (a float at its exact
    binary value), else :class:`Malformed`."""
    try:
        epsilon = Fraction(value)
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise Malformed("epsilon must lie in [0, 1)") from exc
    if not 0 <= epsilon < 1:
        raise Malformed("epsilon must lie in [0, 1)")
    return epsilon


def _clearing_bands(supplies, epsilon: Fraction) -> tuple:
    """Per chore of ``supplies``, the amounts ``(lo, hi) = ((1 - epsilon)
    supply, supply / (1 - epsilon))`` that clear it; ``supply`` itself at
    ``epsilon = 0``."""
    if not epsilon:
        return tuple((supply, supply) for supply in supplies)
    keep = 1 - epsilon
    return tuple((keep * supply, supply / keep) for supply in supplies)


def _json_array(value, name: str, nested: bool = False) -> list:
    """Return ``value`` if it is a JSON array, of arrays when ``nested``;
    anything else raises :class:`Malformed`.  A string in particular would
    otherwise be read character by character."""
    if not isinstance(value, list) or nested and not all(isinstance(row, list) for row in value):
        raise Malformed(f"{name} must be a JSON array" + (" of arrays" if nested else ""))
    return value


@contextlib.contextmanager
def _reading(name: str):
    """Raise :class:`Malformed` for a field missing from or bad in ``name``."""
    try:
        yield
    except KeyError as exc:
        raise Malformed(f"{name} missing field {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise Malformed(f"{name} has a bad value: {exc}") from exc


@functools.lru_cache(maxsize=4096)
def _parse_rational(text: str) -> Fraction:
    """``Fraction(text)``, the shared ``_ZERO`` for a zero literal.  An
    exponent larger in magnitude than ``sys.get_int_max_str_digits()`` is
    refused before ``Fraction`` builds its power of ten, as ``json`` refuses
    an integer literal of more digits; a limit of 0 means none."""
    _, e, exponent = text.lower().partition("e")
    try:
        # A literal Fraction reads has at most one "e", before an integer.
        if e and abs(int(exponent)) > sys.get_int_max_str_digits() > 0:
            raise ValueError("exponent past the integer digit limit")
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise Malformed(f"bad rational literal: {text!r}") from exc
    return value if value.numerator else _ZERO


def format_rational(value: Fraction) -> str:
    """Encode a rational as a ``"num/den"`` string in lowest terms.

    The denominator is positive and ``"0/1"`` encodes zero.  ``value`` is a
    Fraction or an int, subclasses included: both carry their lowest-terms
    ``numerator`` and ``denominator``, so neither is converted.
    """
    return f"{value.numerator}/{value.denominator}"


def _freeze_matrix(rows) -> tuple:
    return tuple(tuple(row) for row in rows)


@dataclass(frozen=True)
class Instance:
    """A chore-division market.

    ``disutility[i][j]`` is agent ``i``'s per-unit cost for chore ``j`` or
    ``None`` when the pair is forbidden (cost at least ``tau``).  Exactly one
    of ``endowment`` (exchange) or ``earning`` (fixed earnings, with per-chore
    ``supply``) is present depending on ``variant``.

    Validation reads each finite disutility's numerator and denominator
    once and checks it against ``tau`` by integer cross-multiplication; an
    endowment entry that is the shared zero ``_ZERO`` is skipped unread,
    and any other entry gets the full type and sign check.  The checks,
    their order and their messages do not depend on which path an entry
    takes.

    Like :attr:`supplies`, the market's integer form is cached per instance
    on first use, outside the fields (so outside equality and hashing), as
    two tuples with one entry per agent:

    - ``_integer_rows[i]`` is ``(row, scale)``: agent ``i``'s disutility
      row times ``scale``, the lcm of its denominators, with ``None`` kept.
      The pattern search builds its ratio bounds from it, and
      :func:`~choremarket.verification.mpb_sets` compares ratios at exact
      prices by its cross-products.
    - ``_integer_budgets[i]`` is ``(den, wealth, const)``: at prices ``p``
      agent ``i``'s budget is ``(sum of x p_j over (j, x) in wealth +
      const) / den``.  An exchange agent's ``wealth`` lists the nonzero
      entries ``(j, integer)`` of its endowment row times ``den``, the lcm
      of the row's denominators, and ``const`` is 0; a fixed-earnings agent
      has no ``wealth`` and earns ``const / den``.  The search, the exact
      check, :meth:`has_positive_wealth` and the exchange graph read it.
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
        tau = self.tau
        if not isinstance(tau, Fraction) or tau.numerator <= 0:
            raise Malformed("tau must be a positive rational")
        tau_num, tau_den = tau.numerator, tau.denominator
        d = _freeze_matrix(self.disutility)
        object.__setattr__(self, "disutility", d)
        if not d or not d[0]:
            raise Malformed("instance needs at least one agent and one chore")
        m = len(d[0])
        # Signs and the bound ``entry < tau`` are read off numerators and
        # denominators (both denominators positive), several times cheaper
        # than Fraction comparisons; a gadget has thousands of entries.
        for row in d:
            if len(row) != m:
                raise Malformed("ragged disutility matrix")
            for entry in row:
                if entry is None:
                    continue
                if not isinstance(entry, Fraction):
                    raise Malformed("disutility entries must be Fraction or None")
                num = entry.numerator
                if num <= 0:
                    raise Malformed("finite disutility must be strictly positive")
                if num * tau_den >= tau_num * entry.denominator:
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
            # One pass reads each entry's numerator once and marks the chores
            # someone owns: entries are nonnegative, so a chore's total is
            # positive when any entry is.  The shared zero is skipped unread.
            owned = [False] * m
            for row in w:
                for j, entry in enumerate(row):
                    if entry is _ZERO:
                        continue
                    if not isinstance(entry, Fraction):
                        raise Malformed("endowments must be nonnegative rationals")
                    num = entry.numerator
                    if num < 0:
                        raise Malformed("endowments must be nonnegative rationals")
                    if num:
                        owned[j] = True
            if not all(owned):
                raise Malformed(f"chore {owned.index(False)} has zero total endowment")
        else:
            if self.endowment is not None or self.earning is None:
                raise Malformed("fixed-earnings variant takes an earning vector")
            e = tuple(self.earning)
            object.__setattr__(self, "earning", e)
            if len(e) != n:
                raise DimensionMismatch("earning length must match agent count")
            for entry in e:
                if not isinstance(entry, Fraction) or entry.numerator < 0:
                    raise Malformed("earnings must be nonnegative rationals")
            s = tuple(self.supply) if self.supply is not None else tuple([Fraction(1)] * m)
            object.__setattr__(self, "supply", s)
            if len(s) != m:
                raise DimensionMismatch("supply length must match chore count")
            for entry in s:
                if not isinstance(entry, Fraction) or entry.numerator <= 0:
                    raise Malformed("supplies must be positive rationals")

    @property
    def n(self) -> int:
        return len(self.disutility)

    @property
    def m(self) -> int:
        return len(self.disutility[0])

    @functools.cached_property
    def supplies(self) -> tuple:
        """Total amount of each chore that must be done: the ``supply`` of
        a fixed-earnings market, an exchange market's endowment column
        sums, computed once per instance."""
        if self.variant == FIXED_EARNINGS:
            return self.supply
        return tuple(
            sum(w for w in col if w is not _ZERO and w) for col in zip(*self.endowment)
        )

    @functools.cached_property
    def _integer_rows(self) -> tuple:
        """The disutility rows in integers; see the class docstring."""
        return tuple(map(_integer_row, self.disutility))

    @functools.cached_property
    def _integer_budgets(self) -> tuple:
        """The budgets in integers; see the class docstring."""
        if self.variant == EXCHANGE:
            return tuple(
                (scale, tuple((j, x) for j, x in enumerate(ints) if x), 0)
                for ints, scale in map(_integer_row, self.endowment)
            )
        return tuple((e.denominator, (), e.numerator) for e in self.earning)

    def finite_chores(self, agent: int) -> tuple:
        """Indices of chores agent can do (disutility below the threshold)."""
        return tuple(j for j, dij in enumerate(self.disutility[agent]) if dij is not None)

    def has_positive_wealth(self, agent: int) -> bool:
        """Whether the agent can ever owe money (positive earning/endowment):
        its integer budget has a wealth entry or a positive constant."""
        _, wealth, const = self._integer_budgets[agent]
        return bool(wealth) or const > 0

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
        return Instance(EXCHANGE, self.tau, self.disutility, endowment=w)


def exchange_instance(tau, disutility, endowment) -> Instance:
    """Build an exchange instance from plain int/str/Fraction data."""
    return Instance(
        EXCHANGE,
        to_fraction(tau),
        [[None if x is None else to_fraction(x) for x in row] for row in disutility],
        endowment=[[to_fraction(x) for x in row] for row in endowment],
    )


def fixed_earnings_instance(tau, disutility, earning, supply=None) -> Instance:
    """Build a fixed-earnings instance from plain int/str/Fraction data."""
    return Instance(
        FIXED_EARNINGS,
        to_fraction(tau),
        [[None if x is None else to_fraction(x) for x in row] for row in disutility],
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
    # Zero endowments add nothing; the start keeps the prices' type, so a
    # budget is a Fraction at exact prices and a float at float prices.
    return sum(
        (w * pj for w, pj in zip(inst.endowment[agent], p) if w is not _ZERO and w),
        _ZERO * p[0],
    )


EXACT = "exact"
FLOAT = "float"


@dataclass(frozen=True)
class EquilibriumCandidate:
    """Prices plus an allocation: agent ``i`` does ``allocation[i][j]``
    units of chore ``j`` and earns ``allocation[i][j] * prices[j]`` for it.

    ``mode`` tags the numeric representation: ``"exact"`` candidates carry
    Fractions and ints, subclasses included but not bools, and are compared
    exactly, ``"float"`` candidates carry finite real numbers, never bools,
    and are verified within tolerances.
    """

    prices: tuple
    allocation: tuple
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
        entries = tuple(chain(self.prices, *self.allocation))
        # The type set decides at C speed; a Fraction or int subclass takes
        # the per-entry test, which rejects a bool as the set does.
        if self.mode == EXACT and not (
            set(map(type, entries)) <= {Fraction, int}
            or all(isinstance(x, (Fraction, int)) and type(x) is not bool for x in entries)
        ):
            raise Malformed("exact candidate entries must be rational numbers")
        if self.mode == FLOAT and not _finite_reals(entries):
            raise Malformed("float candidate entries must be finite real numbers")

    @property
    def n(self) -> int:
        return len(self.allocation)

    @property
    def m(self) -> int:
        return len(self.prices)


# ---------------------------------------------------------------------------
# JSON encoding


def _encode_values(values, mode: str = EXACT) -> list:
    """The JSON array of a row of rationals: floats in float mode, else
    ``"num/den"`` strings with ``None`` (a forbidden pair) kept."""
    if mode == FLOAT:
        return [float(x) for x in values]
    # Most entries of a large market or candidate are the shared zero: "0/1"
    # each, without a Fraction call; any other zero formats as "0/1" too.
    return [None if x is None else "0/1" if x is _ZERO else format_rational(x) for x in values]


def _decode_values(values, mode: str) -> list:
    if mode == FLOAT:
        # A bool stays a bool and None stays None, for EquilibriumCandidate
        # to reject; a string such as "0/1" fails ``float``.
        return [x if x is None or x is True or x is False else float(x) for x in values]
    # A gadget candidate is mostly "0/1": one string comparison per entry
    # instead of a to_fraction call, which gives the same _ZERO.
    return [_ZERO if x == "0/1" else None if x is None else to_fraction(x) for x in values]


def _plain(value):
    """The JSON value of a result or metadata object: a dataclass becomes an
    object of its fields that are not ``None``, a Fraction its ``"num/den"``
    string, a frozenset a sorted array and a tuple or list an array; anything
    else is kept as it is."""
    if dataclasses.is_dataclass(value):
        return {
            field.name: _plain(item)
            for field in dataclasses.fields(value)
            if (item := getattr(value, field.name)) is not None
        }
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, frozenset):
        value = sorted(value)
    if isinstance(value, (tuple, list)):
        return [_plain(item) for item in value]
    return value


def instance_to_json(inst: Instance) -> dict:
    doc = {
        "variant": inst.variant,
        "tau": format_rational(inst.tau),
        "disutility": list(map(_encode_values, inst.disutility)),
    }
    if inst.variant == EXCHANGE:
        doc["endowment"] = list(map(_encode_values, inst.endowment))
    else:
        doc["earning"] = _encode_values(inst.earning)
        doc["supply"] = _encode_values(inst.supply)
    return doc


def instance_from_json(doc: dict) -> Instance:
    if not isinstance(doc, dict):
        raise Malformed("instance document must be a JSON object")
    if "instance" in doc:
        doc = doc["instance"]
    with _reading("instance document"):
        variant = doc["variant"]
        tau = doc["tau"]
        disutility = _json_array(doc["disutility"], "disutility", nested=True)
        if variant == EXCHANGE:
            endowment = _json_array(doc["endowment"], "endowment", nested=True)
            return exchange_instance(tau, disutility, endowment)
        if variant == FIXED_EARNINGS:
            earning = _json_array(doc["earning"], "earning")
            supply = doc.get("supply")
            if supply is not None:
                supply = _json_array(supply, "supply")
            return fixed_earnings_instance(tau, disutility, earning, supply)
    raise Malformed(f"unknown variant {variant!r}")


def candidate_to_json(cand: EquilibriumCandidate) -> dict:
    return {
        "mode": cand.mode,
        "prices": _encode_values(cand.prices, cand.mode),
        "allocation": [_encode_values(row, cand.mode) for row in cand.allocation],
    }


def candidate_from_json(doc: dict) -> EquilibriumCandidate:
    if not isinstance(doc, dict):
        raise Malformed("equilibrium document must be a JSON object")
    with _reading("equilibrium document"):
        mode = doc.get("mode", EXACT)
        prices = _decode_values(_json_array(doc["prices"], "prices"), mode)
        rows = _json_array(doc["allocation"], "allocation", nested=True)
        allocation = [_decode_values(row, mode) for row in rows]
    return EquilibriumCandidate(prices, allocation, mode=mode)


def _gadget_to_json(gadget, kind: str, fields: dict) -> dict:
    """A reduction's gadget file: its market, and metadata that rebuilds it."""
    return {
        "instance": instance_to_json(gadget.instance),
        "metadata": {
            "kind": kind,
            **fields,
            "agents": list(gadget.agent_labels),
            "chores": list(gadget.chore_labels),
        },
    }


def _gadget_from_json(doc, kind: str, read, build):
    """``build(*read(metadata))`` of a gadget file of ``kind``.  Its
    ``instance`` must be that market, else :class:`NotGadget`: no check may
    run on a market other than the file's."""
    meta = doc.get("metadata") if isinstance(doc, dict) else None
    if not isinstance(meta, dict) or meta.get("kind") != kind:
        raise NotGadget(f"document lacks {kind} metadata")
    with _reading(f"{kind} metadata"):
        args = read(meta)
    gadget = build(*args)
    if doc.get("instance") != instance_to_json(gadget.instance):
        raise NotGadget("instance differs from the market its metadata builds")
    return gadget


#: The types a JSON array may hold for the C encoder to write it whole.
_SCALARS = frozenset((str, int, float, bool, type(None)))


def _json_text(doc: dict) -> str:
    """The package's JSON text of ``doc``: two-space indent, sorted keys,
    no trailing newline; the text of ``json.dumps(doc, indent=2,
    sort_keys=True)``, byte for byte.

    ``json.dumps`` runs its pure-Python encoder whenever it indents, one
    generator step per array item.  Here dicts (keys sorted) and lists or
    tuples are walked in Python, and every nonempty array whose items are
    all of the exact types in ``_SCALARS`` is written by one call of the C
    encoder of ``json.JSONEncoder``, whose item separator carries the
    newline and the items' indent.  Each indent gets its encoder once per
    call.  A matrix row is one such array, so a gadget's market costs one
    C call per row.
    """
    encoders = {}
    chunks = []

    def encoder(indent):
        """The C encoder whose items sit at ``indent`` (a newline and spaces)."""
        encode = encoders.get(indent)
        if encode is None:
            encode = json.JSONEncoder(separators=("," + indent, ": "), check_circular=False).encode
            encoders[indent] = encode
        return encode

    def key_text(key, encode):
        # As json: a str key as it is, a number, bool or None key quoted.
        if isinstance(key, str):
            return encode(key)
        if key is None or isinstance(key, (int, float)):
            return f'"{encode(key)}"'
        raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")

    def write(value, outer):
        inner = outer + "  "
        if isinstance(value, (list, tuple)):
            if not value:
                chunks.append("[]")
            elif set(map(type, value)) <= _SCALARS:
                chunks.extend(("[", inner, encoder(inner)(value)[1:-1], outer, "]"))
            else:
                separator = "[" + inner
                for item in value:
                    chunks.append(separator)
                    write(item, inner)
                    separator = "," + inner
                chunks.extend((outer, "]"))
        elif isinstance(value, dict):
            if not value:
                chunks.append("{}")
            else:
                encode = encoder(inner)
                separator = "{" + inner
                for key, item in sorted(value.items()):
                    chunks.extend((separator, key_text(key, encode), ": "))
                    write(item, inner)
                    separator = "," + inner
                chunks.extend((outer, "}"))
        else:
            chunks.append(encoder(inner)(value))

    write(doc, "\n")
    return "".join(chunks)


def save_json(doc: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(_json_text(doc) + "\n")


def load_json(path: str) -> dict:
    """The file's JSON document.  Text that is not UTF-8 or not JSON, an
    integer past the interpreter's digit limit, or nesting past its
    recursion limit is :class:`Malformed`, and the message names the file."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except (ValueError, RecursionError) as exc:
            raise Malformed(f"{exc} (reading {path})") from exc
