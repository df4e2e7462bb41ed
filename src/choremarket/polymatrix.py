"""Encoding threshold polymatrix games as exchange chore markets.

A normalized game over ``n`` players with two strategies each (a ``2n x 2n``
payoff matrix with row pair-sums one) becomes a layered market: ``K`` layers
of chore pairs whose relative prices can tilt by at most ``alpha_k``, wired in
a cycle so that a tilt at one layer forces the opposite tilt at the next and
the amplification factor ``3/2`` per layer keeps every tilt inside its band.
Top-layer prices, affinely rescaled, are a mixed strategy; any equilibrium of
the market recovers a threshold equilibrium of the game.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .errors import (
    BadGame,
    BadParams,
    DegenerateSize,
    DimensionMismatch,
    Malformed,
    OutOfBand,
)
from .model import (
    _ZERO,
    EXACT,
    EXCHANGE,
    EquilibriumCandidate,
    Instance,
    _gadget_from_json,
    _gadget_to_json,
    _json_array,
    _plain,
    _reading,
    _tolerance,
    agent_budget,
    to_fraction,
    to_int,
)


@dataclass(frozen=True)
class PolymatrixGame:
    """Two-strategy polymatrix game given by a ``2n x 2n`` payoff matrix.

    Entry ``payoff[i][j]`` is what the owner of row ``i`` contributes to
    strategy ``j``; entries lie in ``[0, 1]`` and each row's two entries for
    a player's strategy pair sum to one.  ``n`` is read once as
    :func:`~choremarket.model.to_int` reads it and each entry as
    :func:`~choremarket.model.to_fraction` reads it, so a bool or a float
    is :class:`Malformed`.
    """

    n: int
    payoff: Tuple[Tuple[Fraction, ...], ...]

    def __post_init__(self):
        n = to_int(self.n)
        payoff = tuple(tuple(to_fraction(x) for x in row) for row in self.payoff)
        object.__setattr__(self, "payoff", payoff)
        if n < 1:
            raise BadGame("game needs at least one player")
        size = 2 * n
        if len(payoff) != size or any(len(row) != size for row in payoff):
            raise BadGame("payoff matrix must be 2n x 2n")
        for row in payoff:
            for x in row:
                if not 0 <= x <= 1:
                    raise BadGame("payoff entries must lie in [0, 1]")
            for i in range(n):
                if row[2 * i] + row[2 * i + 1] != 1:
                    raise BadGame("each strategy pair's payoffs must sum to one")

    @functools.cached_property
    def column_sums(self) -> Tuple[Fraction, ...]:
        """Total payoff each strategy ``j`` receives: ``sum_i payoff[i][j]``."""
        return tuple(map(sum, zip(*self.payoff)))


@dataclass(frozen=True)
class PolymatrixVerdict:
    ok: bool
    violations: Tuple[str, ...] = ()


def verify_polymatrix_equilibrium(
    game: PolymatrixGame, x: Sequence[float], slack: float = 0.0
) -> PolymatrixVerdict:
    """Check the threshold equilibrium conditions within ``slack``.

    ``x`` must be a nonnegative vector with each strategy pair summing to
    one; whenever one strategy of a pair beats the other by more than
    ``1/n``, the losing strategy must carry no weight.  Weights are numbers
    or rational strings (see :func:`model.to_fraction`), read as exact
    rationals; any other weight (a bool, NaN or infinity included), a string
    ``x``, and a NaN, infinite or negative ``slack`` are :class:`Malformed`.
    """
    if isinstance(x, str):
        raise Malformed("strategy must be a sequence of weights, not a string")
    slack = Fraction(_tolerance(slack))
    try:
        # to_fraction parses strings and rejects bools, which Fraction() reads as 1 and 0.
        x = [to_fraction(v) if isinstance(v, (str, bool)) else Fraction(v) for v in x]
    except (TypeError, ValueError, OverflowError) as exc:
        raise Malformed(f"bad strategy weight: {exc}") from exc
    size = 2 * game.n
    if len(x) != size:
        raise DimensionMismatch("strategy length must be 2n")
    violations = []
    for j, v in enumerate(x):
        if v < -slack:
            violations.append(f"strategy weight {j} is negative")
    for i in range(game.n):
        pair = x[2 * i] + x[2 * i + 1]
        if abs(pair - 1) > slack:
            violations.append(f"pair {i} weights sum to {pair}, not 1")
    scores = [
        sum(x[r] * game.payoff[r][j] for r in range(size))
        for j in range(size)
    ]
    threshold = Fraction(1, game.n)
    for i in range(game.n):
        a, b = scores[2 * i], scores[2 * i + 1]
        if a > b + threshold + slack and x[2 * i + 1] > slack:
            violations.append(
                f"pair {i}: losing strategy {2 * i + 1} still carries weight"
            )
        if b > a + threshold + slack and x[2 * i] > slack:
            violations.append(
                f"pair {i}: losing strategy {2 * i} still carries weight"
            )
    return PolymatrixVerdict(not violations, tuple(violations))


@dataclass(frozen=True)
class PPADGadgetParams:
    """Layer schedule of the reduction.

    ``alpha[k]`` (0-based layer ``k+1``) is the price-tilt band of the layer;
    it starts at ``1 / n**(3c)`` and grows by ``3/2`` per layer, ending in
    ``(n**c * alpha[0], 1 / n**c]`` so that every band is tiny yet the top
    band dominates the bottom one.  ``n``, ``c`` and ``K`` are read as
    :func:`~choremarket.model.to_int` reads them, and ``tau`` and each
    ``alpha`` and ``delta`` entry as :func:`~choremarket.model.to_fraction`
    reads it, so a float, a bool, ``None`` or an unreadable string is
    :class:`Malformed`.  Construction then checks the schedule: ``n`` at
    least 1, ``c`` nonnegative, every ``alpha`` positive, ``K`` even and at
    least 2, one ``alpha`` and ``delta`` per layer, the top band in that
    range (a huge ``c`` fails before ``n**c`` is built) and ``tau > 1 +
    alpha[-1]``, else :class:`BadParams`.
    """

    n: int
    c: int
    K: int
    alpha: Tuple[Fraction, ...]
    delta: Tuple[Fraction, ...]
    tau: Fraction

    def __post_init__(self):
        for name in ("n", "c", "K"):
            object.__setattr__(self, name, to_int(getattr(self, name)))
        for name in ("alpha", "delta"):
            object.__setattr__(self, name, tuple(map(to_fraction, getattr(self, name))))
        object.__setattr__(self, "tau", to_fraction(self.tau))
        n, c, alpha = self.n, self.c, self.alpha
        if n < 1:
            raise BadParams("n must be at least 1")
        if c < 0:
            raise BadParams("c must be nonnegative")
        if not all(a > 0 for a in alpha):
            raise BadParams("every alpha must be positive")
        if len(alpha) != self.K or len(self.delta) != self.K:
            raise BadParams("schedule length must equal K")
        if self.K % 2 != 0 or self.K < 2:
            raise BadParams("K must be a positive even number")
        bottom, top = alpha[0], alpha[-1]
        # n**c is at least 2**(c * (bits(n) - 1)): once that reaches
        # 2**bits(top / bottom), n**c * bottom passes top, and n**c, which
        # could have billions of bits, is never built.
        huge = n > 1 and c * (n.bit_length() - 1) >= math.ceil(top / bottom).bit_length()
        if huge or not (power := n**c) * bottom < top:
            raise BadParams("top band must dominate the bottom band")
        if not top <= Fraction(1, power):
            raise BadParams("top band must stay below 1 / n**c")
        if self.tau <= 1 + top:
            raise BadParams("tau must exceed every finite disutility")

    @staticmethod
    def for_size(n: int, c: int = 4) -> "PPADGadgetParams":
        if n < 2:
            raise DegenerateSize("reduction requires at least two players")
        K = 2 * c * max(1, math.ceil(math.log2(n)))
        alpha1 = Fraction(1, n ** (3 * c))
        alpha = [alpha1 * Fraction(3, 2) ** k for k in range(K)]
        delta = [n * a / 2 for a in alpha]
        return PPADGadgetParams(n, c, K, tuple(alpha), tuple(delta), Fraction(2))


@dataclass(frozen=True)
class PolymatrixGadget:
    """Built market plus the index maps of its layered parts."""

    game: PolymatrixGame
    params: PPADGadgetParams
    instance: Instance
    agent_labels: Tuple[str, ...]
    chore_labels: Tuple[str, ...]

    def chore(self, layer: int, i: int) -> int:
        """Chore ``b^layer_i`` (layer 1-based, ``i`` 0-based in [0, 2n))."""
        return _chore(self.params.n, layer, i)


def _chore(n: int, layer: int, i: int) -> int:
    """Index of chore ``b^layer_i`` in a gadget over ``n`` players."""
    return 2 * n * (layer - 1) + i


def build_polymatrix_gadget(
    game: PolymatrixGame, params: Optional[PPADGadgetParams] = None
) -> PolymatrixGadget:
    """Build the layered exchange market for the game."""
    if params is None:
        params = PPADGadgetParams.for_size(game.n)
    if params.n != game.n:
        raise BadParams("parameter size must match the game")
    n, K = game.n, params.K
    size = 2 * n
    alpha = params.alpha
    delta = params.delta
    alpha_K = alpha[-1]
    M = game.payoff

    num_chores = K * size
    agent_labels: List[str] = []
    d_rows: List[List[Optional[Fraction]]] = []
    w_rows: List[List[Fraction]] = []

    chore = functools.partial(_chore, n)
    # Layer k's disutilities (1 - alpha_k, 1 + alpha_k) and an owner's
    # endowment n, computed once.
    levels = [(1 - a, 1 + a) for a in alpha]
    owned = Fraction(n)

    def new_agent(label):
        agent_labels.append(label)
        d_rows.append([None] * num_chores)
        w_rows.append([_ZERO] * num_chores)
        return len(agent_labels) - 1

    def set_pair(agent, layer, pair, own_first):
        """Finite disutilities on the layer's chore pair.

        ``own_first`` True: cheap on the even chore; False: cheap on the odd
        chore; ``None``: cheap on both (the balancing agents).
        """
        lo, hi = levels[layer - 1]
        even, odd = chore(layer, 2 * pair), chore(layer, 2 * pair + 1)
        if own_first is None:
            d_rows[agent][even] = lo
            d_rows[agent][odd] = lo
        elif own_first:
            d_rows[agent][even] = lo
            d_rows[agent][odd] = hi
        else:
            d_rows[agent][even] = hi
            d_rows[agent][odd] = lo

    # Layer 1 owners: work in layer 2.
    for i in range(size):
        agent = new_agent(f"a[1,{i}]")
        w_rows[agent][chore(1, i)] = owned
        set_pair(agent, 2, i // 2, i % 2 == 0)
    for c in range(size):
        agent = new_agent(f"a'[{c}]")
        share = Fraction(1, 2) * (1 - alpha_K) * (2 * n - game.column_sums[c])
        pair = c // 2
        w_rows[agent][chore(1, 2 * pair)] = share
        w_rows[agent][chore(1, 2 * pair + 1)] = share
        set_pair(agent, 1, pair, c % 2 == 0)

    def add_balancers(k):
        """Layer k's balancers: each owns delta_k of a pair and works on it."""
        for pair in range(n):
            agent = new_agent(f"abar[{k},{pair}]")
            w_rows[agent][chore(k, 2 * pair)] = delta[k - 1]
            w_rows[agent][chore(k, 2 * pair + 1)] = delta[k - 1]
            set_pair(agent, k, pair, None)

    # Middle layers 2..K-1: owners work one layer up, balancers at home.
    for k in range(2, K):
        for i in range(size):
            agent = new_agent(f"a[{k},{i}]")
            w_rows[agent][chore(k, i)] = owned
            set_pair(agent, k + 1, i // 2, i % 2 == 0)
        add_balancers(k)

    # Top layer K: matrix owners work in layer 1, balancers at home.
    for i in range(size):
        for j in range(size):
            agent = new_agent(f"a[{K},{i},{j}]")
            w_rows[agent][chore(K, i)] = M[i][j]
            set_pair(agent, 1, j // 2, j % 2 == 0)
    add_balancers(K)

    chore_labels = tuple(
        f"b[{k},{i}]" for k in range(1, K + 1) for i in range(size)
    )
    # Every entry is already a Fraction or None; Instance validates them all.
    inst = Instance(EXCHANGE, params.tau, d_rows, endowment=w_rows)
    return PolymatrixGadget(game, params, inst, tuple(agent_labels), chore_labels)


# ---------------------------------------------------------------------------
# Property verification


@dataclass(frozen=True)
class PropertyCheck:
    name: str
    ok: bool
    details: Tuple[str, ...] = ()


@dataclass(frozen=True)
class GadgetPropertyReport:
    checks: Tuple[PropertyCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def check(self, name: str) -> PropertyCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def _scaled_prices(gadget: PolymatrixGadget, cand: EquilibriumCandidate) -> tuple:
    """The candidate's number type (Fraction or float) and its prices in it,
    rescaled so the first layer-1 pair sums to two."""
    if cand.m != gadget.instance.m:
        raise DimensionMismatch("candidate shape does not match the gadget")
    num = Fraction if cand.mode == EXACT else float
    p = [num(x) for x in cand.prices]
    base = p[gadget.chore(1, 0)] + p[gadget.chore(1, 1)]
    if base <= 0:
        raise OutOfBand("first layer-1 pair carries no price mass")
    return num, [2 * x / base for x in p]


def verify_gadget_properties(
    gadget: PolymatrixGadget,
    cand: Optional[EquilibriumCandidate] = None,
    tol: float = 1e-6,
) -> GadgetPropertyReport:
    """Check the structural and (given prices) price-shape properties.

    Structural: within every layer, the two chores of each pair have equal
    total endowment.  With a candidate, prices are rescaled so the first
    layer-1 pair sums to two, and then every pair must sum to two, the
    column agents' budgets must match their fixed targets, every pair ratio
    must respect its layer band, and a ratio pinned at a band endpoint must
    flip to the opposite endpoint one layer up.  These price checks run in
    the candidate's own numbers, exactly for an exact candidate.
    """
    params = gadget.params
    inst = gadget.instance
    n, K = params.n, params.K
    size = 2 * n
    checks: List[PropertyCheck] = []

    details = []
    for k in range(1, K + 1):
        for pair in range(n):
            even = inst.supplies[gadget.chore(k, 2 * pair)]
            odd = inst.supplies[gadget.chore(k, 2 * pair + 1)]
            if even != odd:
                details.append(f"layer {k} pair {pair}: {even} vs {odd}")
    checks.append(PropertyCheck("pairwise-equal-endowments", not details, tuple(details)))

    if cand is None:
        return GadgetPropertyReport(tuple(checks))

    num, p = _scaled_prices(gadget, cand)
    tol = num(_tolerance(tol))

    details = []
    for k in range(1, K + 1):
        for pair in range(n):
            total = p[gadget.chore(k, 2 * pair)] + p[gadget.chore(k, 2 * pair + 1)]
            if abs(total - 2) > tol:
                details.append(f"layer {k} pair {pair} sums to {total}")
    checks.append(PropertyCheck("price-equality", not details, tuple(details)))

    details = []
    for c in range(size):
        agent = size + c  # column agents follow the 2n layer-1 owners
        budget = agent_budget(inst, agent, p)
        target = num((1 - params.alpha[-1]) * (2 * n - gadget.game.column_sums[c]))
        if abs(budget - target) > tol * max(1, abs(target)):
            details.append(f"column agent {c}: budget {budget}, target {target}")
    checks.append(PropertyCheck("fixed-column-earnings", not details, tuple(details)))

    # bands[k - 1] is layer k's ratio band (lo, hi), shared by the last two checks.
    bands = [((1 - a) / (1 + a), (1 + a) / (1 - a)) for a in map(num, params.alpha)]

    details = []
    ratios = {}
    for k in range(1, K + 1):
        lo, hi = bands[k - 1]
        for pair in range(n):
            odd = p[gadget.chore(k, 2 * pair + 1)]
            if odd <= 0:
                details.append(f"layer {k} pair {pair}: odd chore price is zero")
                continue
            r = p[gadget.chore(k, 2 * pair)] / odd
            ratios[(k, pair)] = r
            if not lo - tol <= r <= hi + tol:
                details.append(f"layer {k} pair {pair}: ratio {r} off band")
    checks.append(PropertyCheck("price-regulation", not details, tuple(details)))

    details = []
    for k in range(1, K):
        lo, hi = bands[k - 1]
        lo_next, hi_next = bands[k]
        for pair in range(n):
            r = ratios.get((k, pair))
            r_next = ratios.get((k + 1, pair))
            if r is None or r_next is None:
                continue
            if abs(r - lo) <= tol and abs(r_next - hi_next) > tol:
                details.append(
                    f"layer {k} pair {pair} at low endpoint, next ratio {r_next}"
                )
            if abs(r - hi) <= tol and abs(r_next - lo_next) > tol:
                details.append(
                    f"layer {k} pair {pair} at high endpoint, next ratio {r_next}"
                )
    checks.append(PropertyCheck("reverse-ratio-amplification", not details, tuple(details)))

    return GadgetPropertyReport(tuple(checks))


def recover_strategy(
    gadget: PolymatrixGadget,
    cand: EquilibriumCandidate,
    tol: float = 1e-6,
) -> tuple:
    """Map top-layer prices to a mixed strategy.

    After rescaling so the first layer-1 pair sums to two, each top-layer
    price must lie in ``[1 - alpha_K, 1 + alpha_K]`` up to ``tol`` (else
    :class:`OutOfBand`); the affine map onto ``[0, 1]`` gives the strategy
    weight in the candidate's own numbers, clamped to the unit interval.
    """
    params = gadget.params
    num, p = _scaled_prices(gadget, cand)
    tol = num(_tolerance(tol))
    a = num(params.alpha[-1])
    lo, hi = 1 - a, 1 + a
    out = []
    for i in range(2 * params.n):
        price = p[gadget.chore(params.K, i)]
        if price < lo - tol or price > hi + tol:
            raise OutOfBand(f"top-layer price {price} outside [{lo}, {hi}]")
        x = (price - lo) / (2 * a)
        out.append(min(num(1), max(num(0), x)))
    return tuple(out)


# ---------------------------------------------------------------------------
# JSON round-tripping


def game_to_json(game: PolymatrixGame) -> dict:
    return _plain(game)


def game_from_json(doc: dict) -> PolymatrixGame:
    with _reading("game document"):
        n = doc["n"]
        payoff = _json_array(doc["payoff"], "payoff", nested=True)
    return PolymatrixGame(n, payoff)


def gadget_to_json(gadget: PolymatrixGadget) -> dict:
    fields = {"game": game_to_json(gadget.game), "params": _plain(gadget.params)}
    return _gadget_to_json(gadget, "polymatrix-gadget", fields)


def _read_metadata(meta: dict) -> tuple:
    game = game_from_json(meta["game"])
    pm = meta["params"]
    params = PPADGadgetParams(
        n=pm["n"],
        c=pm["c"],
        K=pm["K"],
        alpha=_json_array(pm["alpha"], "alpha"),
        delta=_json_array(pm["delta"], "delta"),
        tau=pm["tau"],
    )
    return game, params


def gadget_from_json(doc: dict) -> PolymatrixGadget:
    """The gadget of a file :func:`gadget_to_json` wrote, checked against it."""
    return _gadget_from_json(doc, "polymatrix-gadget", _read_metadata, build_polymatrix_gadget)
