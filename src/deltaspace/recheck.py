"""Run-time re-checks of a verb's witness by plain exact evaluation.

A check reads a space's distances and order as they are, with no masks,
tables or search, so it shares nothing with the engine that found the
witness: this module imports no engine (limitbuilder, ramsey, coding,
search or amalgam), and a tier-1 test holds it to that.  A witness that
fails its check is an AssertionError, which the CLI reports as an
internal error (exit 4), never as a verdict.
"""

from __future__ import annotations


def realizer(m, subset, dists, slot: int):
    """The lowest-index point of the ordered space m outside subset, at
    exactly dists[i] from subset[i] for each i, with exactly slot of the
    subset's points ranked below it; None if no point of m is one."""
    rank = {p: r for r, p in enumerate(m.order)}
    for p in range(m.n):
        row = m.dist[p]
        if (p not in subset and all(row[s] == v for s, v in zip(subset, dists))
                and sum(rank[s] < rank[p] for s in subset) == slot):
            return p
    return None


def check_unrealized(m, subset, dists, slot: int) -> None:
    """AssertionError unless no point of m realizes the extension of
    subset at dists in order slot slot."""
    p = realizer(m, subset, dists, slot)
    if p is not None:
        raise AssertionError(f"the extension of {tuple(subset)} in slot {slot} was reported "
                             f"unrealized, but point {p} realizes it")
