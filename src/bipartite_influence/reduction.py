"""From positive CNF formulas to influence boards.

POS-CNF is the canonical PSPACE-complete variable-picking game: Alice and
Bob alternately claim unclaimed variables of a CNF formula with no negated
literals, Alice first; Alice's variables become true, Bob's false, and
Alice wins when every clause holds.  The translation here builds a board
whose Left score reaches the clause count exactly when Alice wins, giving
the hardness side of solving Bipartite Influence.

Gadget: one White vertex per clause; per variable, a White anchor tied to
a Black connector that feeds every clause containing the variable, and a
bag of pendant Black twins on the anchor sized so that taking the anchor
early is ruinous and the variable choice order mirrors the picking game.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Sequence

from .graphs import BLACK, WHITE, GroundGraph, Position, _check_capacity
from .solver import Solver

MAX_BRUTE_FORCE_VARS = 12


@dataclass(frozen=True)
class PosCnf:
    """A CNF formula with only positive literals.

    Variables are 1-based; ``num_vars`` may exceed the largest mentioned
    variable (the extras never appear in clauses but are still picked
    during play).
    """

    num_vars: int
    clauses: tuple[tuple[int, ...], ...]

    def __init__(self, num_vars: int, clauses: Iterable[Sequence[int]]):
        if num_vars < 1:
            raise ValueError("formula needs at least one variable")
        normalized = []
        for clause in clauses:
            vs = tuple(sorted(set(clause)))
            if not vs:
                raise ValueError("empty clause")
            if vs[0] < 1:
                raise ValueError("literals must be positive variable indices")
            if vs[-1] > num_vars:
                raise ValueError(f"variable {vs[-1]} above num_vars={num_vars}")
            normalized.append(vs)
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "clauses", tuple(normalized))

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)

    def padded(self) -> "PosCnf":
        """Even out the variable count with one unused variable."""
        if self.num_vars % 2 == 0:
            return self
        return PosCnf(self.num_vars + 1, self.clauses)


def parse_pos_cnf(text: str) -> PosCnf:
    """Parse DIMACS-like text: clauses are runs of positive integers ended
    by 0; a ``p cnf <vars> <clauses>`` header is optional; ``c`` lines are
    comments."""
    declared_vars = None
    declared_clauses = None
    numbers: list[int] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            m = re.match(r"p\s+p?cnf\s+(\d+)\s+(\d+)", line)
            if not m:
                raise ValueError(f"bad header line: {line!r}")
            declared_vars = int(m.group(1))
            declared_clauses = int(m.group(2))
            continue
        for tok in line.split():
            try:
                numbers.append(int(tok))
            except ValueError as exc:
                raise ValueError(f"bad token {tok!r}") from exc
    clauses: list[list[int]] = []
    current: list[int] = []
    for x in numbers:
        if x == 0:
            if current:
                clauses.append(current)
                current = []
            continue
        if x < 0:
            raise ValueError("negative literals are not allowed in POS-CNF")
        current.append(x)
    if current:
        clauses.append(current)
    if not clauses:
        raise ValueError("formula has no clauses")
    num_vars = max(map(max, clauses)) if declared_vars is None else declared_vars
    if declared_clauses is not None and declared_clauses != len(clauses):
        raise ValueError(
            f"header declares {declared_clauses} clauses, found {len(clauses)}"
        )
    return PosCnf(num_vars, clauses)


# ---------------------------------------------------------------------------
# the gadget


def bag_size(num_vars: int, num_clauses: int) -> int:
    """Pendants per variable anchor: enough that giving one up early never
    pays, one less than the naive count so totals stay balanced."""
    return num_clauses + 2 * num_vars - 1


def gadget_graph(f: PosCnf) -> GroundGraph:
    """Build the board for a formula; odd variable counts are padded.

    Layout: clause vertices first, then per variable its anchor, its
    connector, and its pendant bag.  Total vertex count is
    ``m + n * (m + 2n + 1)`` for ``n`` variables and ``m`` clauses, checked
    against the capacity before any vertex is made.
    """
    f = f.padded()
    n, m = f.num_vars, f.num_clauses
    _check_capacity(m + n * (m + 2 * n + 1))
    bag = bag_size(n, m)
    colors = []
    edges = []
    colors.extend([WHITE] * m)  # clause vertices: ids 0..m-1
    cursor = m
    connector_of = {}
    for i in range(1, n + 1):
        anchor = cursor
        connector = cursor + 1
        colors.append(WHITE)  # anchor x_i^w
        colors.append(BLACK)  # connector x_i^b
        connector_of[i] = connector
        edges.append((anchor, connector))
        cursor += 2
        for _ in range(bag):
            colors.append(BLACK)
            edges.append((anchor, cursor))
            cursor += 1
    for j, clause in enumerate(f.clauses):
        for var in clause:
            edges.append((connector_of[var], j))
    return GroundGraph(colors, edges, name=f"poscnf_n{n}_m{m}")


# ---------------------------------------------------------------------------
# the picking game itself


def pos_cnf_winner(f: PosCnf) -> bool:
    """Exact minimax of the variable-picking game; True when Alice wins.

    Brute force with memoization over (Alice's set, Bob's set); guarded to
    small formulas since the state space is 3^n.
    """
    if f.num_vars > MAX_BRUTE_FORCE_VARS:
        raise ValueError(
            f"brute force limited to {MAX_BRUTE_FORCE_VARS} variables"
        )
    n = f.num_vars
    full = (1 << n) - 1
    clause_masks = [
        sum(1 << (v - 1) for v in clause) for clause in f.clauses
    ]
    memo: dict[tuple[int, int], bool] = {}

    def alice_wins(alice: int, bob: int) -> bool:
        for mask in clause_masks:
            if mask & ~bob == 0:
                return False  # clause fully claimed by Bob: dead
        if all(mask & alice for mask in clause_masks):
            return True  # every clause already satisfied
        chosen = alice | bob
        if chosen == full:
            return True  # no undecided clause remains
        key = (alice, bob)
        hit = memo.get(key)
        if hit is not None:
            return hit
        turn_alice = (chosen.bit_count() % 2) == 0
        free = [i for i in range(n) if not chosen & (1 << i)]
        if turn_alice:
            result = any(alice_wins(alice | (1 << i), bob) for i in free)
        else:
            result = all(alice_wins(alice, bob | (1 << i)) for i in free)
        memo[key] = result
        return result

    return alice_wins(0, 0)


# ---------------------------------------------------------------------------
# soundness


@dataclass(frozen=True)
class SoundnessReport:
    alice_wins: bool
    left_score: int
    threshold: int

    @property
    def sound(self) -> bool:
        return self.alice_wins == (self.left_score >= self.threshold)


def reduction_soundness_check(
    f: PosCnf, solver: Solver | None = None
) -> SoundnessReport:
    """Confirm the winner of the picking game against the board's score."""
    solver = solver or Solver()
    left = solver.scores(Position.make(gadget_graph(f))).ls
    return SoundnessReport(pos_cnf_winner(f), left, f.num_clauses)
