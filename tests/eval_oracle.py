"""Term evaluation by a left fold, kept as a differential oracle.

``fold_eval`` makes the product of ("mul", f1, ..., fn) two factors at a
time through ``Structure.mul``, in the order f1 f2, then (f1 f2) f3, and so
on, and applies each unary node through ``Structure.plus``/``star``/``inv``;
for trees that is one prune per factor and per unary node.
``Structure.eval`` makes each product in one ``Structure.product`` call,
and for trees builds the whole term raw and prunes it once.  It must agree
with the fold on every term in every model, including the errors it raises.
"""

from __future__ import annotations

from typing import Any, List


def fold_eval(structure, node):
    unary = {"plus": structure.plus, "star": structure.star, "inv": structure.inv}
    values: List[Any] = []
    work: List[Any] = [node]
    while work:
        item = work.pop()
        if isinstance(item, str):  # an operation on the values last pushed
            if item == "mul":
                b = values.pop()
                values.append(structure.mul(values.pop(), b))
            else:
                values.append(unary[item](values.pop()))
        elif item[0] == "one":
            values.append(structure.one)
        elif item[0] == "atom":
            values.append(structure.atom(item[1]))
        elif item[0] == "mul":
            todo: List[Any] = [item[1]]
            for factor in item[2:]:
                todo += [factor, "mul"]
            work.extend(reversed(todo))
        else:
            work += [item[0], item[1]]
    return values.pop()
