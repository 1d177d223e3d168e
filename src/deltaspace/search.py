"""The backtracking engine and the one budget exception.

`injective_maps` runs every bijection search and the ordered
`space.copies_of` on an explicit stack, so a search may be deeper than
the recursion limit.  The one exception is the arrow coloring search,
`ramsey._color`: its per-node work is a few int mask steps, so a call
per node into the engine was most of its cost, and it is a flat loop of
its own.  The re-checks in `recheck` are no engines: by design, they
run plain loops of their own, sharing no code with the engines.
"""

from __future__ import annotations


class BudgetExceeded(Exception):
    """A search or construction ran past its budget: Unknown, never a No."""


def injective_maps(n: int, candidates, consistent, budget: int | None = None):
    """Yield each injective map m on 0..n-1 as a tuple, in the order of
    the recursive search that tries each position's candidates in turn.

    candidates(m, i) lists the possible images of i, once m[0..i-1] are
    placed; images already taken are skipped without counting a node.
    consistent(m, i) says whether the pair (i, m[i]) agrees with the pairs
    placed before it.  One node is counted per image tried, before the
    budget check; BudgetExceeded at the node that passes budget.
    """
    if n == 0:
        yield ()
        return
    limit, nodes = float("inf") if budget is None else budget, 0
    m, used = [-1] * n, set()  # used: the images of 0..i-1
    stack = [iter(candidates(m, 0))]  # stack[i]: the untried images of position i
    while stack:
        i = len(stack) - 1
        for j in stack[i]:
            if j in used:
                continue
            nodes += 1
            if nodes > limit:
                raise BudgetExceeded(f"search exceeded {budget} nodes")
            m[i] = j
            if consistent(m, i):
                if i + 1 < n:
                    used.add(j)
                    stack.append(iter(candidates(m, i + 1)))
                    break
                yield tuple(m)
        else:
            stack.pop()
            if i:
                used.discard(m[i - 1])
