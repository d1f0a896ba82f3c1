"""One adapter for every monoid that terms and certificates compute in.

A ``Structure`` gives a model (see ``ehres --help`` for the list) its
identity, generators, product, the unary operations ``+``, ``*`` and
inverse, powers and an O(1) idempotent test, and evaluates and renders
parsed terms.  Its element functions are ``<prefix>_multiply``,
``<prefix>_plus``, ``<prefix>_star`` and ``<prefix>_inverse`` of one
module, and ``<prefix>_product`` where the module has one, looked up on
the module at every call, so rebinding a module attribute (as a tracer
does) reaches them.  The tree models (module ``xtree``) evaluate a whole
term as one raw tree: one walk of the parsed term appends its edges to one
list, making each vertex once, and the module's ``prune`` reduces that
tree once at the end.  fi, fa and fla (module ``scheiblich``) build the
same raw tree, ``^-1`` included, and fold it with ``munn_of_tree``, since
a Munn element is the set of path words of any tree that spells it.
sdp:F, sz and mm keep the generic evaluator: sdp:F's identity (empty set,
1) is not the fold of the one-vertex tree, and sz lacks ``^+`` and ``^*``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

from . import expansions as ex
from . import psdp, scheiblich as sch, xtree

_SYMBOL = {"plus": "^+", "star": "^*", "inverse": "^-1"}
_NODE_OP = {"plus": "plus", "star": "star", "inv": "inverse"}  # parsed node -> operation


def _missing(op: str, model: str) -> ValueError:
    return ValueError(f"{_SYMBOL[op]} is not defined in model {model}")


def _unchanged(a):
    return a


@dataclass
class Structure:
    name: str
    one: Any
    atom: Optional[Callable[[str], Any]]
    module: Any
    prefix: str
    unary: Tuple[str, ...] = ("plus", "star", "inverse")
    idempotent: Optional[Callable[[Any], bool]] = None  # default: point is 1
    finish: Callable[[Any], Any] = _unchanged  # sub-monoid membership check

    def mul(self, a, b):
        return getattr(self.module, self.prefix + "_multiply")(a, b)

    def product(self, values: Sequence[Any]):
        """values[0] values[1] ... values[-1], for one or more values.

        A model whose module has ``<prefix>_product`` (trees, Munn
        elements) makes the whole product in one call; the others fold
        left to right through ``mul``.
        """
        whole = getattr(self.module, self.prefix + "_product", None)
        if whole is not None:
            return whole(values)
        acc = values[0]
        for b in values[1:]:
            acc = self.mul(acc, b)
        return acc

    def _op(self, op: str, a):
        if op not in self.unary:
            raise _missing(op, self.name)
        return getattr(self.module, f"{self.prefix}_{op}")(a)

    def plus(self, a):
        return self._op("plus", a)

    def star(self, a):
        return self._op("star", a)

    def inv(self, a):
        return self._op("inverse", a)

    def power(self, a, n: int):
        if n < 0:
            a, n = self.inv(a), -n
        return self.product([a] * n) if n else self.one

    def is_E_idempotent(self, a) -> bool:
        if self.idempotent is not None:
            return self.idempotent(a)
        return a.point == self.one.point

    def describe(self, a) -> Any:
        return a.to_json() if hasattr(a, "to_json") else repr(a)

    def render(self, a, fmt: str) -> str:
        if fmt == "text":
            return repr(a)
        if fmt == "json":
            return json.dumps(self.describe(a), indent=2)
        if fmt == "dot" and hasattr(a, "to_dot"):
            return a.to_dot()
        raise ValueError(f"format {fmt} not supported by model {self.name}")

    def eval(self, node):
        """The value of a parsed term.  A work stack of nodes and pending
        operations replaces recursion, so nesting depth is bounded by memory.

        ("mul", f1, ..., fn) evaluates its n factors, then makes one
        ``product`` of them.  That equals the left fold (f1 f2) f3 ...
        because the product is associative.  The fold, which reduces at
        every node, is kept in the tests as the oracle.  A tree model makes
        the whole term as one raw tree instead (``_raw_tree``) and prunes it
        once, and a Munn model folds that raw tree (``munn_of_tree``).

        Errors are raised where the reducing evaluation raises them: an
        operation the model lacks fails when it is reached, on its
        evaluated operand."""
        if self.module is xtree:
            return self.module.prune(self._raw_tree(node))
        if self.module is sch:
            return self.module.munn_of_tree(self._raw_tree(node))
        values: List[Any] = []
        work: List[Any] = [node]
        while work:
            item = work.pop()
            if isinstance(item, int):  # the product of the values last pushed
                factors = values[-item:]
                del values[-item:]
                values.append(self.product(factors))
            elif isinstance(item, str):  # a unary operation on the value last pushed
                values.append(self._op(item, values.pop()))
            elif item[0] == "one":
                values.append(self.one)
            elif item[0] == "atom":
                values.append(self.atom(item[1]))
            elif item[0] == "mul":
                work.append(len(item) - 1)
                work.extend(reversed(item[1:]))
            else:
                work += [_NODE_OP[item[0]], item[1]]
        return values.pop()

    def _raw_tree(self, term) -> xtree.RawTree:
        """The term as one unpruned tree, built in one walk of the parse tree.

        A running vertex ``cur`` is where the next factor is glued.  A
        subterm is built forward (its start is ``cur``, which moves to its
        end) or backward (its end is ``cur``, which moves to its start).  An
        atom appends one edge and one vertex; ``1`` appends nothing; a
        product takes its factors left to right forward, right to left
        backward.  ``T^+`` (start = end = start(T)) builds T forward and
        ``T^*`` (start = end = end(T)) builds T backward, each from ``cur``,
        which is then restored.  ``T^-1``, where the model has it, builds T
        in the other direction and leaves ``cur`` where T left it: its start
        is T's end.  So this is the tree that ``xtree``'s
        ``raw_product``, ``raw_plus`` and ``raw_star`` glue from letter
        trees, up to a numbering that ``prune`` makes canonical.

        Pruning it once equals reducing at every node, by induction on the
        term: ``prune(T)`` is a retraction of T fixing the trunk, hence start
        and end, so it is also one of T re-pointed to either, and it extends
        by the identity over the factors glued beside T.  The tree built
        from pruned subterms is thus a retract of this one, and a tree and
        its retracts have one pruned retract up to isomorphism.

        The walk meets the nodes out of evaluation order, so a missing
        operation raises the error of the first one in that order.
        """
        # the model's own ^+ / ^*: whether the group builds its operand forward
        forward = {op: op == "plus" for op in ("plus", "star") if op in self.unary}
        edges: List[xtree.Edge] = []
        nv = cur = 0
        work: List[Any] = [(term, True)]
        while work:
            item = work.pop()
            if item.__class__ is int:  # a ^+ or ^* group is done: back to its vertex
                cur = item
                continue
            node, fwd = item
            kind = node[0]
            if kind == "atom":
                nv += 1
                edges.append((cur, node[1], nv) if fwd else (nv, node[1], cur))
                cur = nv
            elif kind == "mul":
                if fwd:
                    work.extend([(f, True) for f in node[:0:-1]])
                else:
                    work.extend([(f, False) for f in node[1:]])
            elif kind in forward:
                work.append(cur)
                work.append((node[1], forward[kind]))
            elif kind == "inv" and "inverse" in self.unary:
                work.append((node[1], not fwd))
            elif kind != "one":
                raise self._first_missing(term)
        return xtree.RawTree(nv + 1, tuple(edges), 0, cur)

    def _first_missing(self, node) -> ValueError:
        """The error for the first operation in `node` that the model lacks,
        in evaluation order: operands before their operation, factors left
        to right."""
        work: List[Any] = [node]
        while work:
            item = work.pop()
            if isinstance(item, str):
                if item not in self.unary:
                    return _missing(item, self.name)
            elif item[0] == "mul":
                work.extend(reversed(item[1:]))
            elif item[0] in _NODE_OP:
                work += [_NODE_OP[item[0]], item[1]]
        raise AssertionError(f"every operation in {node!r} is defined")


def semidirect(base: psdp.BaseMonoid, name: str = "sdp", atom=None) -> Structure:
    """S(base), the power-set semidirect product over a base monoid."""
    return Structure(name, psdp.sdp_identity(base), atom, psdp, "sdp")


def _lookup(name: str, letters: dict) -> Callable[[str], Any]:
    def atom(letter):
        if letter not in letters:
            raise ValueError(f"model {name} only has the letters g, h, e")
        return letters[letter]

    return atom


def _member(test: Callable[[Any], bool], monoid: str) -> Callable[[Any], Any]:
    def finish(a):
        if not test(a):
            raise ValueError(f"result lies outside the {monoid}")
        return a

    return finish


def get_structure(name: str) -> Structure:
    """The model called `name`."""
    if name in ("fad", "flad"):
        unary = ("plus", "star") if name == "fad" else ("plus",)
        return Structure(name, xtree.IDENTITY_TREE, xtree.letter_tree, xtree, "tree",
                         unary, idempotent=xtree.is_idempotent)
    def generators(cls):  # x -> ({1, x}, x) in S(F) or its sub-monoid Sz(F) or FI
        return lambda x: cls(sch.F, frozenset({(), ((x, 1),)}), ((x, 1),))

    if name in ("fi", "fa", "fla"):
        # fa/fla terms evaluate in the free inverse monoid; membership in the
        # sub-monoid is checked on the final result only
        finish = {"fa": _member(sch.in_FA, "free ample monoid"),
                  "fla": _member(sch.in_FLA, "free left ample monoid")}.get(name, _unchanged)
        return Structure(name, sch.MUNN_ONE, generators(sch.MunnElement), sch, "munn",
                         finish=finish)
    if name == "sdp:Z" or name.startswith("qn:"):
        Z = psdp.IntegersAdd()
        ghe = {"g": psdp.PSetElement(Z, frozenset(), 1),
               "h": psdp.PSetElement(Z, frozenset(), -1),
               "e": psdp.PSetElement(Z, frozenset({0}), 0)}
        if name == "sdp:Z":
            return semidirect(Z, name, _lookup(name, ghe))
        digits = name[3:]
        if not (digits.isascii() and digits.isdigit()) or int(digits) < 1:
            raise ValueError(f"model qn:<n> needs a decimal n >= 1, got {name!r}")
        n = int(digits)
        name = f"qn:{n}"
        ghe = {k: ex.qn_from_sdp(v, n) for k, v in ghe.items()}
        return Structure(name, ex.qn_identity(n), _lookup(name, ghe), ex, "qn")
    if name == "sdp:F":
        return semidirect(sch.F, name, generators(psdp.PSetElement))
    if name == "mm":
        return Structure(name, ex.mm_identity(), ex.mm_generator, ex, "mm")
    if name == "sz":
        return Structure(name, ex.SzElement(sch.F, frozenset({()}), ()), generators(ex.SzElement),
                         psdp, "sdp", ("inverse",))
    raise ValueError(f"unknown model {name!r}")
