"""Slow reference implementations that the property tests compare against.

Each oracle is a library fast path's predecessor, kept verbatim: it is
simple enough to check by reading, and slow enough that the library no
longer uses it.
"""

import itertools
from fractions import Fraction

from deltaspace.coding import NOT_FALSIFIABLE, SATISFIED, VIOLATED, ClauseStatus, EncodedModel


def check_theory_T(model: EncodedModel) -> dict[str, ClauseStatus]:
    """Clause-by-clause validation of the model against the finite sample.

    Clauses (1)-(6) are checked exhaustively over universe x sample;
    clause (6) reports a violation only when one is provable from the
    finite tables.  Clause (7) asks, for every q, for x and y with
    x/y <= q.  It is Satisfied, with the witness for the smallest q, when
    every sample q has one; otherwise its witnesses lie past the finite
    horizon, so it is reported as not falsifiable.
    """
    report = {}
    qs = sorted(model.rq)
    nz = model.nonzero()
    u = model.universe

    # (1) nothing relates to 0
    status = ClauseStatus(SATISFIED)
    for q in qs:
        for i, j in model.rq[q]:
            if i == 0 or j == 0:
                status = ClauseStatus(VIOLATED, (q, i, j))
    report["1"] = status

    # (2) cuts are downward closed within the sample; the cut at (x, x) is
    # exactly {q < 1}
    status = ClauseStatus(SATISFIED)
    for i in nz:
        for j in nz:
            cut = [q for q in qs if model.holds(q, i, j)]
            for q1 in qs:
                if cut and q1 < max(cut) and not model.holds(q1, i, j):
                    status = ClauseStatus(VIOLATED, (q1, i, j))
            if len(cut) == len(qs):
                status = ClauseStatus(VIOLATED, ("full cut", i, j))
        for q in qs:
            if model.holds(q, i, i) != (q < 1):
                status = ClauseStatus(VIOLATED, ("unit cut", q, i))
    report["2"] = status

    # (3) distinct elements give distinct cuts against every y
    status = ClauseStatus(SATISFIED)
    for i, i2 in itertools.combinations(nz, 2):
        for j in nz:
            if all(model.holds(q, i, j) == model.holds(q, i2, j) for q in qs):
                status = ClauseStatus(VIOLATED, (i, i2, j))
    report["3"] = status

    # (4) multiplicativity along sample products
    status = ClauseStatus(SATISFIED)
    products = [(p, q) for p in qs for q in qs if p * q in model.rq]
    for p, q in products:
        pq = p * q
        for i in nz:
            for j in nz:
                for k in nz:
                    rp, rq_ = model.holds(p, i, j), model.holds(q, j, k)
                    rpq = model.holds(pq, i, k)
                    if rp and rq_ and not rpq:
                        status = ClauseStatus(VIOLATED, (p, q, i, j, k))
                    if not rp and not rq_ and rpq:
                        status = ClauseStatus(VIOLATED, (p, q, i, j, k))
    report["4"] = status

    # (5) the order is linear with 0 least and agrees with R_1
    status = ClauseStatus(SATISFIED)
    one = Fraction(1)
    if one in model.rq:
        for i in nz:
            for j in nz:
                le = u[i] <= u[j]
                via_r = (i == j) or model.holds(one, j, i)
                if le != via_r:
                    status = ClauseStatus(VIOLATED, (i, j))
    else:
        status = ClauseStatus(NOT_FALSIFIABLE)
    report["5"] = status

    # (6) additivity of cuts: only provable violations are reported
    status = ClauseStatus(SATISFIED)
    for (i, i2), k in model.plus.items():
        for j in nz:
            for q in qs:
                # any sample split q = q1 + q2 with both parts in the cuts
                # forces R_q(x+x', y)
                forced = any(
                    model.holds(q1, i, j) and (q - q1) in model.rq and model.holds(q - q1, i2, j)
                    for q1 in qs
                    if q1 < q
                )
                if forced and not model.holds(q, k, j):
                    status = ClauseStatus(VIOLATED, (q, i, i2, j))
    report["6"] = status

    # (7) arbitrarily small elements exist: every sample q has x, y with
    # x/y <= q.  The witness is the one for the smallest q.
    witnesses = [
        next(((q, x, i) for i in nz for x in nz if not model.holds(q, x, i)), None) for q in qs
    ]
    if witnesses and None not in witnesses:
        report["7"] = ClauseStatus(SATISFIED, witnesses[0])
    else:
        report["7"] = ClauseStatus(NOT_FALSIFIABLE)
    return report
