"""Short scoring game trees: numbers and switch-like nodes.

A game is either a number (an empty position with settled score) or a node
with nonempty sets of Left and Right options.  Trees are hash-consed:
structurally equal games are the same object, so equality is identity and
caches key on the object.  Scores are exact: a number's value is an ``int``
when it is integral and a ``Fraction`` only off the integers, where cooling
(see :mod:`bipartite_influence.thermo`) moves it.  Every score of an
Influence tree is an integer, so the algebra runs on native ints, and only
the public :func:`ls` and :func:`rs` turn their result into a ``Fraction``.

The universe of interest is Milnor's: every nonempty position has moves for
both players (true by construction here) and no position is zugzwang
(``ls >= rs`` everywhere), which :func:`audit_universe` checks.

This module is game algebra only and imports nothing from the package:
the game of a board comes from ``solver.Solver.tree``, and that of a
union of segments from ``segments.SegmentEngine.tree``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, reduce
from itertools import count
from operator import attrgetter
from typing import Iterable, Sequence


class Game:
    __slots__ = ("value", "left", "right", "uid",
                 "_ls", "_rs", "_neg", "_simple", "_zugzwang", "_thermo")

    def __init__(self, value, left, right, uid):
        self.value = value  # int, or Fraction off the integers, for numbers; None for nodes
        self.left = left  # tuple[Game] sorted by uid, deduped
        self.right = right
        self.uid = uid
        self._ls = None
        self._rs = None
        self._neg = None
        self._simple = None
        self._zugzwang = None
        self._thermo = None

    @property
    def is_number(self) -> bool:
        return self.value is not None

    def __repr__(self) -> str:
        try:
            return f"Game({format_game(self)})"
        except ValueError as exc:  # a notation over MAX_NOTATION_SIZE
            return f"Game(#{self.uid}, {exc})"


_intern: dict[tuple, Game] = {}
_uid = count(1)


def exact(value):
    """``value`` as an ``int`` when it is integral, else as a ``Fraction``:
    the form of every value and score inside the package."""
    if type(value) is not int:
        if type(value) is not Fraction:
            value = Fraction(value)
        if value.denominator == 1:
            value = value.numerator
    return value


def number(value) -> Game:
    # 3 == Fraction(3) and the two hash alike, so either spelling of an
    # integral value finds the one interned game.
    value = exact(value)
    key = ("n", value)
    g = _intern.get(key)
    if g is None:
        g = Game(value, (), (), next(_uid))
        _intern[key] = g
    return g


def node(left_options: Iterable[Game], right_options: Iterable[Game]) -> Game:
    left = _canonical_options(left_options)
    right = _canonical_options(right_options)
    if not left or not right:
        raise ValueError("a non-number game needs options for both players")
    key = ("o", tuple(g.uid for g in left), tuple(g.uid for g in right))
    g = _intern.get(key)
    if g is None:
        g = Game(None, left, right, next(_uid))
        _intern[key] = g
    return g


_by_uid = attrgetter("uid")


def _canonical_options(options: Iterable[Game]) -> tuple[Game, ...]:
    # interned games are equal only when identical, so a set dedups them
    return tuple(sorted(set(options), key=_by_uid))


# ---------------------------------------------------------------------------
# scores


def ls(g: Game) -> Fraction:
    """Best score with Left moving first."""
    return Fraction(_left_score(g))


def rs(g: Game) -> Fraction:
    """Best score with Right moving first."""
    return Fraction(_right_score(g))


# The recursion behind ls and rs, memoised in each game's ``_ls`` and
# ``_rs`` slots in the type of its leaves: int, or Fraction off the integers.


def _left_score(g: Game):
    if g._ls is None:
        g._ls = g.value if g.value is not None else max(map(_right_score, g.left))
    return g._ls


def _right_score(g: Game):
    if g._rs is None:
        g._rs = g.value if g.value is not None else min(map(_left_score, g.right))
    return g._rs


# ---------------------------------------------------------------------------
# algebra


def negate(g: Game) -> Game:
    # Negation reverses the order of games, so the negative of a simplified
    # game is simplified: mark it so that ``simplify`` does not walk it.
    if g._neg is None:
        if g.is_number:
            out = number(-g.value)
        else:
            out = node([negate(o) for o in g.right], [negate(o) for o in g.left])
            if g._simple is g:
                out._simple = out
        g._neg = out
        out._neg = g
    return g._neg


_add_cache: dict[tuple[int, int], Game] = {}


def add(g: Game, h: Game) -> Game:
    """Disjunctive sum.  Numbers shift every option of the other side."""
    if g.uid > h.uid:
        g, h = h, g
    key = (g.uid, h.uid)
    hit = _add_cache.get(key)
    if hit is not None:
        return hit
    # adding zero would walk the other summand only to rebuild it
    if g.is_number and not g.value:
        return h
    if h.is_number and not h.value:
        return g
    # A number shifts every leaf alike, and the order of games with it, so
    # the shift of a simplified game is simplified: mark it so that
    # ``simplify`` does not walk it again.
    if g.is_number and h.is_number:
        out = number(g.value + h.value)
    elif g.is_number:
        out = node((add(g, o) for o in h.left), (add(g, o) for o in h.right))
        if h._simple is h:
            out._simple = out
    elif h.is_number:
        out = node((add(o, h) for o in g.left), (add(o, h) for o in g.right))
        if g._simple is g:
            out._simple = out
    else:
        lefts = [add(o, h) for o in g.left] + [add(g, o) for o in h.left]
        rights = [add(o, h) for o in g.right] + [add(g, o) for o in h.right]
        out = node(lefts, rights)
    _add_cache[key] = out
    return out


def add_all(games: Sequence[Game]) -> Game:
    return reduce(add, games) if games else number(0)


def repeated(g: Game, n: int) -> Game:
    if n < 1:
        raise ValueError("need at least one copy")
    return add_all([g] * n)


# ---------------------------------------------------------------------------
# universe audit, comparison, simplification


def audit_universe(g: Game) -> str | None:
    """Return a description of the first zugzwang subtree in pre-order, or None.

    Games built by :func:`node` are dicotic by construction, so the audit
    reduces to checking ``ls >= rs`` on every subtree.  Each subtree keeps
    its verdict, so a game is walked once however often it is audited.
    """
    if g._zugzwang is None:
        left, right = _left_score(g), _right_score(g)
        if left < right:
            g._zugzwang = f"zugzwang subtree {format_game(g)}: Ls={left} < Rs={right}"
        else:
            g._zugzwang = next(filter(None, map(audit_universe, g.left + g.right)), "")
    return g._zugzwang or None


def equivalent(g: Game, h: Game) -> bool:
    """Whether the two games are interchangeable in any sum.

    Tests ``g >= h`` and ``h >= g``, which inside the zugzwang-free dicotic
    universe is Ls = Rs = 0 on their difference.  Raises ``ValueError`` on
    a game outside the universe.
    """
    for side in (g, h):
        bad = audit_universe(side)
        if bad:
            raise ValueError(f"input outside the universe: {bad}")
    try:
        return _rs_diff_nonneg(g, h) and _rs_diff_nonneg(h, g)
    finally:
        _rs_nonneg_cache.clear()
        _ls_nonneg_cache.clear()


def dominates(g: Game, h: Game) -> bool:
    """Whether ``g >= h`` as games: Rs(g - h) >= 0, so Right cannot profit
    from the swap.  Decided without building ``g - h``."""
    return _rs_diff_nonneg(g, h)


# Milnor's comparison as a mutual recursion on the options of g - h, whose
# Left options are gL - h and g - hR and whose Right options are gR - h and
# g - hL.  A number shifts every leaf of the other side, so a comparison
# against a number reads one cached score.  This is the hot path of
# simplify: plain loops rather than any()/all() over generators halve its
# time and stack depth, and ``value is not None`` skips the property call.
# The memos grow with the square of the games compared, so they last one
# outermost simplify or equivalent; simplify's dominance tests share them.

_rs_nonneg_cache: dict[tuple[int, int], bool] = {}
_ls_nonneg_cache: dict[tuple[int, int], bool] = {}


def _rs_diff_nonneg(g: Game, h: Game) -> bool:
    """Rs(g - h) >= 0: every Right move in g - h leaves Ls >= 0."""
    if h.value is not None:
        return _right_score(g) >= h.value
    if g.value is not None:
        return g.value >= _left_score(h)
    key = (g.uid, h.uid)
    hit = _rs_nonneg_cache.get(key)
    if hit is None:
        hit = True
        for o in g.right:
            if not _ls_diff_nonneg(o, h):
                hit = False
                break
        else:
            for o in h.left:
                if not _ls_diff_nonneg(g, o):
                    hit = False
                    break
        _rs_nonneg_cache[key] = hit
    return hit


def _ls_diff_nonneg(g: Game, h: Game) -> bool:
    """Ls(g - h) >= 0: some Left move in g - h leaves Rs >= 0."""
    if h.value is not None:
        return _left_score(g) >= h.value
    if g.value is not None:
        return g.value >= _right_score(h)
    key = (g.uid, h.uid)
    hit = _ls_nonneg_cache.get(key)
    if hit is None:
        hit = False
        for o in g.left:
            if _rs_diff_nonneg(o, h):
                hit = True
                break
        else:
            for o in h.right:
                if _rs_diff_nonneg(g, o):
                    hit = True
                    break
        _ls_nonneg_cache[key] = hit
    return hit


def simplify(g: Game) -> Game:
    """Remove dominated options bottom-up; the result is an equal game.

    A Left option is dropped when a sibling dominates it; a Right option is
    dropped when it dominates a sibling.  Ties keep one representative.
    Valid only inside the universe: a zugzwang subtree may be dropped, and
    then the result is not equal to ``g``, so audit the input first.
    """
    try:
        return _simplify(g)
    finally:
        _rs_nonneg_cache.clear()
        _ls_nonneg_cache.clear()


def _simplify(g: Game) -> Game:
    if g._simple is None:
        if g.is_number:
            out = g
        else:
            lefts = [_simplify(o) for o in g.left]
            rights = [_simplify(o) for o in g.right]
            out = node(_undominated(lefts, dominates),
                       _undominated(rights, lambda a, b: dominates(b, a)))
        g._simple = out
        out._simple = out
    return g._simple


def _undominated(options: list[Game], better) -> list[Game]:
    """The options no other option beats, where ``better(a, b)`` says
    ``a`` is at least as good as ``b`` for the mover; ties keep the first."""
    kept: list[Game] = []
    for opt in options:
        if any(better(k, opt) for k in kept):
            continue
        kept = [k for k in kept if not better(opt, k)]
        kept.append(opt)
    return kept


# ---------------------------------------------------------------------------
# notation

MAX_GAME_DEPTH = 100
MAX_NOTATION_SIZE = 10**7  # characters: a subtree is spelled out wherever it occurs


def _spell(g: Game, leaf, join):
    """Fold the notation of ``g`` once per distinct subtree, by ``leaf`` on
    a number's value and ``join`` on a node's Left and Right results."""

    @cache  # games are interned, so identity is equality
    def walk(g: Game):
        if g.is_number:
            return leaf(g.value)
        return join(list(map(walk, g.left)), list(map(walk, g.right)))

    return walk(g)


def notation_size(g: Game) -> int:
    """The length of ``format_game(g)``, counted without building it."""
    return _spell(g, lambda v: len(str(v)), lambda a, b: 1 + len(a) + len(b) + sum(a) + sum(b))


def format_game(g: Game) -> str:
    """The notation :func:`parse_game` reads; a shared subtree is formatted
    once per call.  Raises ``ValueError`` above ``MAX_NOTATION_SIZE``."""
    if (size := notation_size(g)) > MAX_NOTATION_SIZE:
        raise ValueError(f"game notation has {size} characters, the cap is {MAX_NOTATION_SIZE}")
    return _spell(g, str, lambda lefts, rights: f"<{','.join(lefts)}|{','.join(rights)}>")


def parse_game(text: str) -> Game:
    """Parse :func:`format_game` notation, at most ``MAX_GAME_DEPTH`` deep."""
    pos = 0

    def skip_ws():
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1

    def parse_g(depth: int) -> Game:
        nonlocal pos
        skip_ws()
        if pos >= len(text):
            raise ValueError("unexpected end of game notation")
        if text[pos] == "<":
            if depth == MAX_GAME_DEPTH:
                raise ValueError(f"game nested deeper than {MAX_GAME_DEPTH} levels")
            pos += 1
            lefts = parse_options("|", depth + 1)
            pos += 1  # consume '|'
            rights = parse_options(">", depth + 1)
            pos += 1  # consume '>'
            return node(lefts, rights)
        return parse_number()

    def parse_options(stop: str, depth: int) -> list[Game]:
        nonlocal pos
        out = [parse_g(depth)]
        skip_ws()
        while pos < len(text) and text[pos] == ",":
            pos += 1
            out.append(parse_g(depth))
            skip_ws()
        if pos >= len(text) or text[pos] != stop:
            raise ValueError(f"expected {stop!r} at position {pos}")
        return out

    def parse_number() -> Game:
        nonlocal pos
        start = pos
        if pos < len(text) and text[pos] in "+-":
            pos += 1
        while pos < len(text) and (text[pos].isdigit() or text[pos] == "/"):
            pos += 1
        if pos == start:
            raise ValueError(f"expected a number at position {start}")
        try:
            return number(Fraction(text[start:pos]))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator at position {start}") from None

    g = parse_g(0)
    skip_ws()
    if pos != len(text):
        raise ValueError(f"trailing input at position {pos}")
    return g
