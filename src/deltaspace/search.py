"""The backtracking engine and the one budget exception.

Every bijection search and the ordered `space.copies_of` run on this
engine.  It keeps an explicit stack, so a search may be deeper than the
recursion limit.  The one exception is the arrow coloring search,
`ramsey._color`: its per-node work is a few int mask steps, so the
engine's per-node `place` and `undo` calls were most of its cost, and
it runs as a flat loop of its own.
"""

from __future__ import annotations


class BudgetExceeded(Exception):
    """A search or construction ran past its budget: Unknown, never a No."""


class Search:
    """Depth-first search over positions 0..n-1.

    choices(i) lists the candidates for position i once 0..i-1 are placed.
    place(i, c) applies candidate c and returns whether to descend; undo(i, c)
    follows every place, once the subtree below it is done.  Iterating yields
    each complete assignment as a tuple of candidates, in the order of the
    recursive search that tries each position's candidates in turn.

    One node is counted per candidate tried, before the budget check; `nodes`
    is the count at the last yield, at exhaustion or at BudgetExceeded.
    """

    def __init__(self, n: int, choices, place, undo, budget: int | None = None):
        self.n, self.choices, self.place, self.undo, self.budget = n, choices, place, undo, budget
        self.nodes = 0

    def __iter__(self):
        n, choices, place, undo = self.n, self.choices, self.place, self.undo
        budget = float("inf") if self.budget is None else self.budget
        nodes = 0
        if n == 0:
            yield ()
            return
        path = [None] * n
        stack = [iter(choices(0))]  # stack[i]: the untried candidates of position i
        while stack:
            i = len(stack) - 1
            for c in stack[i]:
                nodes += 1
                if nodes > budget:
                    self.nodes = nodes
                    raise BudgetExceeded(f"search exceeded {self.budget} nodes")
                if place(i, c):
                    path[i] = c
                    if i + 1 < n:
                        stack.append(iter(choices(i + 1)))
                        break
                    self.nodes = nodes
                    yield tuple(path)
                undo(i, c)
            else:
                stack.pop()
                if i:
                    undo(i - 1, path[i - 1])
        self.nodes = nodes


def injective_maps(n: int, candidates, consistent, budget: int | None = None) -> Search:
    """A Search over the injective maps m on 0..n-1, yielding each m.

    candidates(i) lists the possible images of i, in the order to try them;
    images already taken are skipped without counting a node.  consistent(m, i)
    says whether the pair (i, m[i]) agrees with the pairs placed before it.
    """
    m = [-1] * n
    used = set()

    def place(i, j):
        m[i] = j
        used.add(j)
        return consistent(m, i)

    return Search(n, lambda i: (j for j in candidates(i) if j not in used), place,
                  lambda i, j: used.discard(j), budget)
