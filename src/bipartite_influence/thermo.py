"""Cooling, thermographs, means and temperatures, all in exact rationals.

Cooling by ``t`` taxes each move: Left options lose ``t`` points, Right
options gain ``t``.  As ``t`` grows the advantage of moving first shrinks;
the temperature ``sigma`` is the least tax at which the cooled Left and
Right scores meet, and the shared frozen value is the mast, which equals
the mean value of the game (the per-copy score of a large sum of copies).
A game's thermograph takes the envelopes of its options' trajectories as
walls, and one walk taxes both walls and freezes them where they meet.

Score trajectories of cooled games are piecewise linear in ``t`` with
rational breakpoints, so everything here works on exact piecewise-linear
functions over ``[0, oo)`` rather than floats.  Their breakpoints and
coefficients are ints while they are integral, as a game's leaves are, and
``Fraction`` only off the integers; ``sigma``, the mast and every other
result of the public functions is a ``Fraction``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

from .games import Game, audit_universe, exact, ls, repeated, rs


class PiecewiseLinear:
    """A continuous piecewise-linear function on [0, oo).

    ``pieces`` is a tuple of ``(start, a, b)`` triples meaning value
    ``a + b*t`` from ``start`` up to the next piece's start (the last piece
    extends to infinity).  Starts are strictly increasing and begin at 0;
    adjacent pieces agree at the joins and never share the same line.
    Each number is stored by ``games.exact``: an ``int`` when it is
    integral, else a ``Fraction``.
    """

    __slots__ = ("pieces",)

    def __init__(self, pieces):
        merged: list[tuple] = []
        for start, a, b in pieces:
            start, a, b = exact(start), exact(a), exact(b)
            if merged and (a, b) == merged[-1][1:]:
                continue  # same line, extend the previous piece
            if merged and start <= merged[-1][0]:
                raise ValueError("piece starts must increase strictly")
            if merged:
                _, pa, pb = merged[-1]
                if pa + pb * start != a + b * start:
                    raise ValueError("pieces must join continuously")
            merged.append((start, a, b))
        if not merged or merged[0][0] != 0:
            raise ValueError("function must start at t = 0")
        self.pieces = tuple(merged)

    @classmethod
    def constant(cls, value) -> "PiecewiseLinear":
        return cls([(0, value, 0)])

    def value(self, t) -> Fraction:
        t = Fraction(t)
        if t < 0:
            raise ValueError("domain is t >= 0")
        _, a, b = [p for p in self.pieces if p[0] <= t][-1]
        return a + b * t

    def breakpoints(self) -> list[Fraction]:
        return [p[0] for p in self.pieces]

    def __eq__(self, other) -> bool:
        return isinstance(other, PiecewiseLinear) and self.pieces == other.pieces

    def __hash__(self) -> int:
        return hash(self.pieces)

    def __repr__(self) -> str:
        parts = ", ".join(
            f"[{s}: {a}{'+' if b >= 0 else '-'}{abs(b)}t]" for s, a, b in self.pieces
        )
        return f"PiecewiseLinear({parts})"


def _merged_cuts(f: PiecewiseLinear, g: PiecewiseLinear):
    """Yield ``(t, end, a1, b1, a2, b2)`` for each cut ``t`` of either
    function: up to the next cut ``end`` (None after the last), ``f`` is
    ``a1 + b1*t`` and ``g`` is ``a2 + b2*t``."""
    fp, gp = f.pieces, g.pieces
    cuts = sorted({p[0] for p in fp} | {p[0] for p in gp})
    i = j = 0
    for t, end in zip(cuts, cuts[1:] + [None]):
        if i + 1 < len(fp) and fp[i + 1][0] == t:
            i += 1
        if j + 1 < len(gp) and gp[j + 1][0] == t:
            j += 1
        yield t, end, fp[i][1], fp[i][2], gp[j][1], gp[j][2]


def _crossing(t, end, a1, b1, a2, b2):
    """Where two lines cross strictly between ``t`` and ``end``, or None;
    an ``int`` when the crossing is integral, else a ``Fraction``."""
    if b1 != b2:
        cross = exact(Fraction(a2 - a1, b1 - b2))
        if t < cross and (end is None or cross < end):
            return cross
    return None


def _pointwise(f: PiecewiseLinear, g: PiecewiseLinear, pick) -> PiecewiseLinear:
    """Pointwise ``pick`` (``max`` or ``min``) of two functions.

    At each cut of either function the lines compare by ``(value, slope)``,
    so a tie goes to the line that wins just after the cut.  Where the two
    lines cross strictly between cuts, the crossing becomes a cut.
    """
    out = []
    for t, end, a1, b1, a2, b2 in _merged_cuts(f, g):
        _, b, a = pick((a1 + b1 * t, b1, a1), (a2 + b2 * t, b2, a2))
        out.append((t, a, b))
        cross = _crossing(t, end, a1, b1, a2, b2)
        if cross is not None:
            # past the crossing the other line wins
            out.append((cross, a1 + a2 - a, b1 + b2 - b))
    return PiecewiseLinear(out)


def upper_envelope(fns: list[PiecewiseLinear]) -> PiecewiseLinear:
    """Pointwise maximum of several piecewise-linear functions."""
    if not fns:
        raise ValueError("need at least one function")
    return reduce(lambda f, g: _pointwise(f, g, max), fns)


def lower_envelope(fns: list[PiecewiseLinear]) -> PiecewiseLinear:
    """Pointwise minimum of several piecewise-linear functions."""
    if not fns:
        raise ValueError("need at least one function")
    return reduce(lambda f, g: _pointwise(f, g, min), fns)


# ---------------------------------------------------------------------------
# thermographs


@dataclass(frozen=True)
class Thermograph:
    """Frozen cooled-score trajectories of one game.

    ``ls_trajectory(t)`` and ``rs_trajectory(t)`` give the scores of the
    game cooled by ``t``; past ``sigma`` both sit at the mast value.
    """

    ls_trajectory: PiecewiseLinear
    rs_trajectory: PiecewiseLinear
    sigma: Fraction
    mast: Fraction


def _freeze(left_wall: PiecewiseLinear, right_wall: PiecewiseLinear) -> Thermograph:
    """Tax the two walls in one walk, Left's slope down 1 and Right's up 1,
    and freeze both from ``sigma`` on: the first ``t`` where the taxed walls
    meet, at a cut or strictly inside a piece.  The mast is the taxed Left
    wall's value there."""
    ls_pieces, rs_pieces = [], []
    for t, end, a1, b1, a2, b2 in _merged_cuts(left_wall, right_wall):
        b1, b2 = b1 - 1, b2 + 1
        if a1 + b1 * t == a2 + b2 * t:
            sigma = t
            break
        ls_pieces.append((t, a1, b1))
        rs_pieces.append((t, a2, b2))
        sigma = _crossing(t, end, a1, b1, a2, b2)
        if sigma is not None:
            break
    assert sigma is not None, "trajectories of a short game must meet"
    mast = a1 + b1 * sigma
    ls_pieces.append((sigma, mast, 0))
    rs_pieces.append((sigma, mast, 0))
    return Thermograph(PiecewiseLinear(ls_pieces), PiecewiseLinear(rs_pieces),
                       Fraction(sigma), Fraction(mast))


def _negated(f: PiecewiseLinear) -> PiecewiseLinear:
    return PiecewiseLinear([(start, -a, -b) for start, a, b in f.pieces])


def thermograph(g: Game) -> Thermograph:
    """Exact thermograph of a game inside the universe.

    The walls are the envelopes of the options' trajectories, taxed and
    frozen where they meet in one walk.  Rejects zugzwang games, naming the
    subtree that ``audit_universe`` names: cooling is only meaningful when
    moving first is never a burden.  A game whose negative has a cached
    thermograph reads its own off it: the two trajectories swap and
    negate, ``sigma`` stays and the mast negates.
    """
    if g._thermo is not None:
        return g._thermo
    neg = g._neg
    if neg is not None and neg._thermo is not None:
        tg = neg._thermo
        out = Thermograph(_negated(tg.rs_trajectory), _negated(tg.ls_trajectory),
                          tg.sigma, -tg.mast)
    elif g.is_number:
        flat = PiecewiseLinear.constant(g.value)
        out = Thermograph(flat, flat, Fraction(0), Fraction(g.value))
    else:
        bad = audit_universe(g)
        if bad:
            raise ValueError(f"cannot cool a game outside the universe: {bad}")
        out = _freeze(
            upper_envelope([thermograph(o).rs_trajectory for o in g.left]),
            lower_envelope([thermograph(o).ls_trajectory for o in g.right]),
        )
    g._thermo = out
    return out


def mean(g: Game) -> Fraction:
    """The mast value: per-copy score of arbitrarily large sums of copies."""
    return thermograph(g).mast


def mean_by_repetition(g: Game, n: int) -> tuple[Fraction, Fraction]:
    """Average first-player scores of ``n`` copies, an independent estimate
    of the mean (both sides converge to it as ``n`` grows)."""
    if n < 1:
        raise ValueError("need at least one copy")
    total = repeated(g, n)
    return Fraction(ls(total), n), Fraction(rs(total), n)


# ---------------------------------------------------------------------------
# export


def _pl_to_json(f: PiecewiseLinear) -> list[dict]:
    return [
        {"start": str(s), "value_at_start": str(a + b * s), "slope": str(b)}
        for s, a, b in f.pieces
    ]


def thermograph_to_json(tg: Thermograph) -> dict:
    return {
        "sigma": str(tg.sigma),
        "mast": str(tg.mast),
        "ls_trajectory": _pl_to_json(tg.ls_trajectory),
        "rs_trajectory": _pl_to_json(tg.rs_trajectory),
    }


def thermograph_csv_rows(tg: Thermograph) -> list[tuple[str, str, str]]:
    """Plot-ready (t, ls, rs) rows at every breakpoint plus one past freeze."""
    cuts = sorted(
        set(tg.ls_trajectory.breakpoints())
        | set(tg.rs_trajectory.breakpoints())
        | {tg.sigma, tg.sigma + 1}
    )
    return [
        (
            str(t),
            str(tg.ls_trajectory.value(t)),
            str(tg.rs_trajectory.value(t)),
        )
        for t in cuts
    ]
