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
    NotGadget,
    OutOfBand,
)
from .model import (
    EquilibriumCandidate,
    Instance,
    exchange_instance,
    format_rational,
    instance_to_json,
    to_fraction,
)


@dataclass(frozen=True)
class PolymatrixGame:
    """Two-strategy polymatrix game given by a ``2n x 2n`` payoff matrix.

    Entry ``payoff[i][j]`` is what the owner of row ``i`` contributes to
    strategy ``j``; entries lie in ``[0, 1]`` and each row's two entries for
    a player's strategy pair sum to one.
    """

    n: int
    payoff: Tuple[Tuple[Fraction, ...], ...]

    def __post_init__(self):
        if self.n < 1:
            raise BadGame("game needs at least one player")
        payoff = tuple(tuple(Fraction(x) for x in row) for row in self.payoff)
        object.__setattr__(self, "payoff", payoff)
        size = 2 * self.n
        if len(payoff) != size or any(len(row) != size for row in payoff):
            raise BadGame("payoff matrix must be 2n x 2n")
        for row in payoff:
            for x in row:
                if not 0 <= x <= 1:
                    raise BadGame("payoff entries must lie in [0, 1]")
            for i in range(self.n):
                if row[2 * i] + row[2 * i + 1] != 1:
                    raise BadGame("each strategy pair's payoffs must sum to one")


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
    ``1/n``, the losing strategy must carry no weight.
    """
    size = 2 * game.n
    if len(x) != size:
        raise DimensionMismatch("strategy length must be 2n")
    x = [float(v) for v in x]
    violations = []
    for j, v in enumerate(x):
        if v < -slack:
            violations.append(f"strategy weight {j} is negative")
    for i in range(game.n):
        pair = x[2 * i] + x[2 * i + 1]
        if abs(pair - 1.0) > slack:
            violations.append(f"pair {i} weights sum to {pair}, not 1")
    scores = [
        sum(x[r] * float(game.payoff[r][j]) for r in range(size))
        for j in range(size)
    ]
    threshold = 1.0 / game.n
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
    band dominates the bottom one.
    """

    n: int
    c: int
    K: int
    alpha: Tuple[Fraction, ...]
    delta: Tuple[Fraction, ...]
    tau: Fraction

    @staticmethod
    def for_size(n: int, c: int = 4) -> "PPADGadgetParams":
        if n < 2:
            raise DegenerateSize("reduction requires at least two players")
        K = 2 * c * max(1, math.ceil(math.log2(n)))
        alpha1 = Fraction(1, n ** (3 * c))
        alpha = [alpha1 * Fraction(3, 2) ** k for k in range(K)]
        delta = [n * a / 2 for a in alpha]
        params = PPADGadgetParams(n, c, K, tuple(alpha), tuple(delta), Fraction(2))
        params.validate()
        return params

    def validate(self) -> None:
        if len(self.alpha) != self.K or len(self.delta) != self.K:
            raise BadParams("schedule length must equal K")
        if self.K % 2 != 0 or self.K < 2:
            raise BadParams("K must be a positive even number")
        top = self.alpha[-1]
        if not self.n**self.c * self.alpha[0] < top:
            raise BadParams("top band must dominate the bottom band")
        if not top <= Fraction(1, self.n**self.c):
            raise BadParams("top band must stay below 1 / n**c")
        if self.tau <= 1 + top:
            raise BadParams("tau must exceed every finite disutility")


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
        return 2 * self.params.n * (layer - 1) + i


def build_polymatrix_gadget(
    game: PolymatrixGame, params: Optional[PPADGadgetParams] = None
) -> PolymatrixGadget:
    """Build the layered exchange market for the game."""
    if params is None:
        params = PPADGadgetParams.for_size(game.n)
    params.validate()
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

    def chore(layer, i):
        return size * (layer - 1) + i

    def new_agent(label):
        agent_labels.append(label)
        d_rows.append([None] * num_chores)
        w_rows.append([Fraction(0)] * num_chores)
        return len(agent_labels) - 1

    def set_pair(agent, layer, pair, own_first):
        """Finite disutilities on the layer's chore pair.

        ``own_first`` True: cheap on the even chore; False: cheap on the odd
        chore; ``None``: cheap on both (the balancing agents).
        """
        a = alpha[layer - 1]
        lo, hi = 1 - a, 1 + a
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
        w_rows[agent][chore(1, i)] = Fraction(n)
        set_pair(agent, 2, i // 2, i % 2 == 0)
    col_sums = [sum(M[r][c] for r in range(size)) for c in range(size)]
    for c in range(size):
        agent = new_agent(f"a'[{c}]")
        share = Fraction(1, 2) * (1 - alpha_K) * (2 * n - col_sums[c])
        pair = c // 2
        w_rows[agent][chore(1, 2 * pair)] = share
        w_rows[agent][chore(1, 2 * pair + 1)] = share
        set_pair(agent, 1, pair, c % 2 == 0)

    # Middle layers 2..K-1: owners work one layer up, balancers at home.
    for k in range(2, K):
        for i in range(size):
            agent = new_agent(f"a[{k},{i}]")
            w_rows[agent][chore(k, i)] = Fraction(n)
            set_pair(agent, k + 1, i // 2, i % 2 == 0)
        for pair in range(n):
            agent = new_agent(f"abar[{k},{pair}]")
            w_rows[agent][chore(k, 2 * pair)] = delta[k - 1]
            w_rows[agent][chore(k, 2 * pair + 1)] = delta[k - 1]
            set_pair(agent, k, pair, None)

    # Top layer K: matrix owners work in layer 1, balancers at home.
    for i in range(size):
        for j in range(size):
            agent = new_agent(f"a[{K},{i},{j}]")
            w_rows[agent][chore(K, i)] = M[i][j]
            set_pair(agent, 1, j // 2, j % 2 == 0)
    for pair in range(n):
        agent = new_agent(f"abar[{K},{pair}]")
        w_rows[agent][chore(K, 2 * pair)] = delta[K - 1]
        w_rows[agent][chore(K, 2 * pair + 1)] = delta[K - 1]
        set_pair(agent, K, pair, None)

    chore_labels = tuple(
        f"b[{k},{i}]" for k in range(1, K + 1) for i in range(size)
    )
    inst = exchange_instance(params.tau, d_rows, w_rows)
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


def _scaled_prices(gadget: PolymatrixGadget, prices) -> List[float]:
    base = float(prices[gadget.chore(1, 0)]) + float(prices[gadget.chore(1, 1)])
    if base <= 0:
        raise OutOfBand("first layer-1 pair carries no price mass")
    return [2.0 * float(p) / base for p in prices]


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
    flip to the opposite endpoint one layer up.
    """
    params = gadget.params
    inst = gadget.instance
    n, K = params.n, params.K
    size = 2 * n
    checks: List[PropertyCheck] = []

    details = []
    for k in range(1, K + 1):
        for pair in range(n):
            even = sum(row[gadget.chore(k, 2 * pair)] for row in inst.endowment)
            odd = sum(row[gadget.chore(k, 2 * pair + 1)] for row in inst.endowment)
            if even != odd:
                details.append(f"layer {k} pair {pair}: {even} vs {odd}")
    checks.append(PropertyCheck("pairwise-equal-endowments", not details, tuple(details)))

    if cand is None:
        return GadgetPropertyReport(tuple(checks))

    p = _scaled_prices(gadget, cand.prices)

    details = []
    for k in range(1, K + 1):
        for pair in range(n):
            total = p[gadget.chore(k, 2 * pair)] + p[gadget.chore(k, 2 * pair + 1)]
            if abs(total - 2.0) > tol:
                details.append(f"layer {k} pair {pair} sums to {total}")
    checks.append(PropertyCheck("price-equality", not details, tuple(details)))

    details = []
    col_sums = [
        sum(gadget.game.payoff[r][c] for r in range(size)) for c in range(size)
    ]
    for c in range(size):
        agent = size + c  # column agents follow the 2n layer-1 owners
        budget = sum(
            float(w) * p[j] for j, w in enumerate(inst.endowment[agent]) if w
        )
        target = float((1 - params.alpha[-1]) * (2 * n - col_sums[c]))
        if abs(budget - target) > tol * max(1.0, abs(target)):
            details.append(f"column agent {c}: budget {budget}, target {target}")
    checks.append(PropertyCheck("fixed-column-earnings", not details, tuple(details)))

    details = []
    ratios = {}
    for k in range(1, K + 1):
        a = float(params.alpha[k - 1])
        lo, hi = (1 - a) / (1 + a), (1 + a) / (1 - a)
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
        a = float(params.alpha[k - 1])
        a_next = float(params.alpha[k])
        lo, hi = (1 - a) / (1 + a), (1 + a) / (1 - a)
        lo_next = (1 - a_next) / (1 + a_next)
        hi_next = (1 + a_next) / (1 - a_next)
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
) -> Tuple[float, ...]:
    """Map top-layer prices to a mixed strategy.

    After rescaling so the first layer-1 pair sums to two, each top-layer
    price must lie in ``[1 - alpha_K, 1 + alpha_K]`` up to ``tol`` (else
    :class:`OutOfBand`); the affine map onto ``[0, 1]`` gives the strategy
    weight, clamped to the unit interval.
    """
    params = gadget.params
    if cand.m != gadget.instance.m:
        raise DimensionMismatch("candidate shape does not match the gadget")
    p = _scaled_prices(gadget, cand.prices)
    a = float(params.alpha[-1])
    out = []
    for i in range(2 * params.n):
        price = p[gadget.chore(params.K, i)]
        if price < 1 - a - tol or price > 1 + a + tol:
            raise OutOfBand(
                f"top-layer price {price} outside [{1 - a}, {1 + a}]"
            )
        x = (price - (1 - a)) / (2 * a)
        out.append(min(1.0, max(0.0, x)))
    return tuple(out)


# ---------------------------------------------------------------------------
# JSON round-tripping


def game_to_json(game: PolymatrixGame) -> dict:
    return {
        "n": game.n,
        "payoff": [[format_rational(x) for x in row] for row in game.payoff],
    }


def game_from_json(doc: dict) -> PolymatrixGame:
    try:
        n = int(doc["n"])
        payoff = tuple(tuple(to_fraction(x) for x in row) for row in doc["payoff"])
    except KeyError as exc:
        raise Malformed(f"game document missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise Malformed(f"game document has a bad value: {exc}") from exc
    return PolymatrixGame(n, payoff)


def gadget_to_json(gadget: PolymatrixGadget) -> dict:
    return {
        "instance": instance_to_json(gadget.instance),
        "metadata": {
            "kind": "polymatrix-gadget",
            "game": game_to_json(gadget.game),
            "params": {
                "n": gadget.params.n,
                "c": gadget.params.c,
                "K": gadget.params.K,
                "alpha": [format_rational(a) for a in gadget.params.alpha],
                "delta": [format_rational(d) for d in gadget.params.delta],
                "tau": format_rational(gadget.params.tau),
            },
            "agents": list(gadget.agent_labels),
            "chores": list(gadget.chore_labels),
        },
    }


def gadget_from_json(doc: dict) -> PolymatrixGadget:
    meta = doc.get("metadata") if isinstance(doc, dict) else None
    if not isinstance(meta, dict) or meta.get("kind") != "polymatrix-gadget":
        raise NotGadget("document lacks polymatrix-gadget metadata")
    try:
        game = game_from_json(meta["game"])
        pm = meta["params"]
        params = PPADGadgetParams(
            n=int(pm["n"]),
            c=int(pm["c"]),
            K=int(pm["K"]),
            alpha=tuple(to_fraction(a) for a in pm["alpha"]),
            delta=tuple(to_fraction(d) for d in pm["delta"]),
            tau=to_fraction(pm["tau"]),
        )
    except KeyError as exc:
        raise Malformed(f"polymatrix-gadget metadata missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise Malformed(f"polymatrix-gadget metadata has a bad value: {exc}") from exc
    return build_polymatrix_gadget(game, params)
