"""Pure-Python enumeration kernel over packed ground programs.

Mirrors the compiled kernel exactly; kept as the universal fallback and as
an independent executor for cross-checking. Works on arbitrary-precision
integers, so any candidate count and any weight magnitude are accepted.
"""

from __future__ import annotations

from ._packed import KIND_COUNT, KIND_MAX, KIND_SUM


def _relation_truth(cmp: int, rel: int) -> bool:
    if rel == 0:  # <
        return cmp < 0
    if rel == 1:  # >
        return cmp > 0
    if rel == 2:  # <=
        return cmp <= 0
    if rel == 3:  # >=
        return cmp >= 0
    if rel == 4:  # =
        return cmp == 0
    return cmp != 0  # !=


def _tuple_satisfied(mask: int, conds, start: int, count: int) -> bool:
    for c in range(start, start + count):
        pos, neg = conds[c]
        if (mask & pos) == pos and (mask & neg) == 0:
            return True
    return False


def _aggregate_true(mask: int, meta, tuples, conds) -> bool:
    (
        naf,
        kind,
        has_left,
        left_rel,
        left_is_int,
        left_val,
        has_right,
        right_rel,
        right_is_int,
        right_val,
        start,
        count,
    ) = meta
    if kind in (KIND_COUNT, KIND_SUM):
        value = 0
        for t in range(start, start + count):
            weight, _, _, _, cstart, ccount = tuples[t]
            if _tuple_satisfied(mask, conds, cstart, ccount):
                value += 1 if kind == KIND_COUNT else weight
        truth = True
        if has_left:
            cmp = (value > left_val) - (value < left_val) if left_is_int else -1
            truth = _relation_truth(-cmp, left_rel)
        if truth and has_right:
            cmp = (value > right_val) - (value < right_val) if right_is_int else -1
            truth = _relation_truth(cmp, right_rel)
    else:
        # empty set: #max is -infinity (compares below all), #min +infinity
        best_left = best_right = -1 if kind == KIND_MAX else 1
        for t in range(start, start + count):
            _, participates, cmp_left, cmp_right, cstart, ccount = tuples[t]
            if participates and _tuple_satisfied(mask, conds, cstart, ccount):
                if kind == KIND_MAX:
                    if cmp_left > best_left:
                        best_left = cmp_left
                    if cmp_right > best_right:
                        best_right = cmp_right
                else:
                    if cmp_left < best_left:
                        best_left = cmp_left
                    if cmp_right < best_right:
                        best_right = cmp_right
        truth = True
        if has_left:
            truth = _relation_truth(-best_left, left_rel)
        if truth and has_right:
            truth = _relation_truth(best_right, right_rel)
    return truth != bool(naf)


def _body_true(mask: int, rule, agg_index, aggs, tuples, conds) -> bool:
    head, pos, neg, astart, acount = rule
    if (mask & pos) != pos or (mask & neg) != 0:
        return False
    for a in range(astart, astart + acount):
        if not _aggregate_true(mask, aggs[agg_index[a]], tuples, conds):
            return False
    return True


def solve_masks(flat) -> list[int]:
    """All answer-set bitmasks of the packed program, ascending."""
    size, conflicts, rules, agg_index, aggs, tuples, conds = flat
    results: list[int] = []
    for mask in range(1 << size):
        consistent = True
        for conflict in conflicts:
            if (mask & conflict) == conflict:
                consistent = False
                break
        if not consistent:
            continue
        kept = []
        model = True
        for rule in rules:
            if _body_true(mask, rule, agg_index, aggs, tuples, conds):
                if (mask & rule[0]) == 0:
                    model = False
                    break
                kept.append(rule)
        if not model:
            continue
        minimal = True
        if mask:
            sub = (mask - 1) & mask
            while True:
                refuted = False
                for rule in kept:
                    if (
                        _body_true(sub, rule, agg_index, aggs, tuples, conds)
                        and (sub & rule[0]) == 0
                    ):
                        refuted = True
                        break
                if not refuted:
                    minimal = False
                    break
                if sub == 0:
                    break
                sub = (sub - 1) & mask
        if minimal:
            results.append(mask)
    return results
