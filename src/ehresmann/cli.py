"""Command line interface.

    ehres eval "a b^+ (a b)^*" --model fad --format json
    ehres check forbidden-config --example fi --depth 5

Terms: juxtaposition is product, postfix ^+ ^* ^-1, parentheses, and 1 for
the identity.  Models: fad, flad (pruned trees), fi/fa/fla (free inverse /
ample / left ample), sdp:Z, sdp:F (power-set semidirect products over Z
and the free group), mm (Cayley-subgraph pairs over the free group), sz
(Szendrei pairs: the inverse sub-monoid of sdp:F whose sets hold 1 and the
point), qn:<n> (size-truncated quotient of S(Z)).  In sdp:Z and qn:<n> the
letters g, h, e denote the standard triple ((0,+1), (0,-1), ({0},0)).

Each check takes the options listed by `ehres check NAME --help`.  Check
exit codes: 0 pass, 1 fail, 2 inconclusive; errors, including a usage error
or a negative --depth or --bound, also exit 1.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import itertools
import json
import re
import sys
from typing import Any, Dict, List, Optional, Tuple

from . import coherence as co
from . import embed_theta as et
from . import expansions as ex
from . import psdp, scheiblich as sch, xtree
from .structures import get_structure


# ---------------------------------------------------------------------------
# term parsing

_TOKENS = re.compile(r"\s*(\^\+|\^\*|\^-1|\(|\)|[A-Za-z_][A-Za-z_0-9]*|1)")


def tokenize(text: str) -> List[str]:
    out: List[str] = []
    pos, end = 0, len(text.rstrip())  # blanks around the term are ignored
    while pos < end:
        m = _TOKENS.match(text, pos)
        if not m:
            raise ValueError(f"bad term syntax at {text[pos:]!r}")
        out.append(m.group(1))
        pos = m.end()
    return out


def parse_term(text: str):
    """term := factor+ ; factor := primary ('^+'|'^*'|'^-1')* ;
    primary := '(' term ')' | letter | '1'.

    A product of two or more factors is one node ("mul", f1, ..., fn).
    Open parentheses are kept on an explicit stack, so nesting depth is
    bounded by memory, not by the interpreter's recursion limit."""
    postfix = {"^+": "plus", "^*": "star", "^-1": "inv"}
    tokens = tokenize(text)
    if not tokens:
        raise ValueError("empty term")
    # the factors read so far of each open term, outermost first
    terms: List[List[Any]] = [[]]
    for t in tokens:
        factors = terms[-1]
        if t == "(":
            terms.append([])
        elif t == ")":
            if not factors:
                raise ValueError(f"expected an atom, found {t!r}")
            if len(terms) == 1:
                raise ValueError("trailing input in term")
            terms.pop()
            terms[-1].append(factors[0] if len(factors) == 1 else ("mul", *factors))
        elif t in postfix:
            if not factors:
                raise ValueError(f"expected an atom, found {t!r}")
            factors[-1] = (postfix[t], factors[-1])
        else:
            factors.append(("one",) if t == "1" else ("atom", t))
    if not terms[-1]:
        raise ValueError("expected an atom at the end of the term")
    if len(terms) > 1:
        raise ValueError("missing )")
    factors = terms[0]
    return factors[0] if len(factors) == 1 else ("mul", *factors)


def eval_term(text: str, model_name: str):
    node = parse_term(text)
    structure = get_structure(model_name)
    return structure, structure.finish(structure.eval(node))


def cx_from_term(text: str) -> et.CXWord:
    """A term made of letters and ^+ groups, read as a C-word."""
    node = parse_term(text)
    letters: List[Any] = []

    stack = [node]
    while stack:
        n = stack.pop()
        if n[0] == "mul":
            stack.extend(reversed(n[1:]))
        elif n[0] == "one":
            pass
        elif n[0] == "atom":
            letters.append((n[1],))
        elif n[0] == "plus":
            letters.append(get_structure("flad").eval(n))  # one prune per group
        else:
            raise ValueError("C-words only support letters, products and ^+")
    return et.CXWord.make(letters)


# ---------------------------------------------------------------------------
# checks: CHECKS[name](**params) -> ConfigReport; the keyword parameters of
# each function, with their defaults, are the options of `ehres check name`

def _size(what: str, value: int) -> int:
    """A depth or bound; a negative one is an error."""
    if value < 0:
        raise ValueError(f"{what} must not be negative, got {value}")
    return value


def _forbidden_config(model=None, depth=5, example=None, a=None, b=None):
    """The forbidden L~ configuration of b a^i, (b a^i)^+ for i <= --depth."""
    N = _size("depth", depth)
    if a is not None or b is not None:
        if example is not None:
            raise ValueError("--example cannot be combined with --a/--b")
        name = get_structure(model or "fad").name
        if name not in ("fad", "flad"):
            raise ValueError("term overrides are supported for tree models only")
        # the terms are read in the chosen model, but L~ needs FAd's *
        ctx = get_structure("fad")
        a_val = eval_term(a or "1", name)[1]
        b_val = eval_term(b or "1", name)[1]
    else:
        if model is not None:
            raise ValueError("--model applies only to the terms of --a/--b")
        ctx, a_val, b_val = co.example(example or "fi")
    return co.check_forbidden_config(a_val, b_val, N, ctx)


def _bgr(model="sdp:Z", depth=5):
    """The (g, h, e) conditions (0)-(4ii) in sdp:Z or qn:<n>, exponents <= --depth."""
    N = _size("depth", depth)
    ctx = get_structure(model)
    if not (ctx.name == "sdp:Z" or ctx.name.startswith("qn:")):
        raise ValueError("bgr runs in sdp:Z or qn:<n>")
    g, h, e = (ctx.atom(x) for x in "ghe")
    return co.check_bgr_config(g, h, e, N, ctx)


def _ghe(model="qn:3", depth=4):
    """The five non-relation families of <1> in Z, in the quotient qn:<n>, up to --depth."""
    N = _size("depth", depth)
    ctx = get_structure(model)
    if not ctx.name.startswith("qn:"):
        raise ValueError("ghe runs in qn:<n>")
    return co.check_ghe_quotient_conditions(N, ctx)


def _triangle(depth=3):
    """Witnesses u_i, v_i in S(x*) of a^i b u_i = a^i b v_i, not at i-1, for i <= --depth."""
    return co.check_triangle(_size("depth", depth))


def _lemma_m_n(depth=3):
    """The (m, n) lemma in S(x*) for m, n <= --depth: sampled implication, exact witnesses."""
    N = _size("depth", depth)
    ctx, a, b, tri, _ = co.triangle_config(N)
    wits = []
    for i in range(1, N + 1):
        # u b a^i = b a^i needs the marked power to land in the i-th
        # shifted copy of T, and to miss all earlier shifted copies
        s = 2 * (i - 1) + tri[2 * i] + 1
        u = psdp.PSetElement(ctx.one.base, frozenset({("x",) * s}), ())
        wits.append((u, ctx.one))
    universe = [ctx.one, b] + [u for u, _ in wits[:2]]
    return co.check_lemma_m_n(a, b, wits, N, universe, ctx)


def _annihilator(term="b a^+"):
    """Generators of the right annihilator r(T) = {(U, V) : TU = TV} of a flad term."""
    t = eval_term(term, "flad")[1]
    gens = co.right_annihilator_FLAd(t)
    notes = [
        f"r(T) generated by {len(gens.pairs)} pair(s)",
        *(f"(1, {f!r})" for _, f in sorted(gens.pairs, key=repr)),
    ]
    return co.ConfigReport("pass", 0, [], notes)


def _left_intersect(s="a", t="b"):
    """The left ideal intersection MS n MT of two flad terms: empty or principal."""
    S = eval_term(s, "flad")[1]
    T = eval_term(t, "flad")[1]
    res = co.left_ideal_intersection_FLAd(S, T)
    verdict = "pass" if res.conclusive else "inconclusive"
    notes = [f"kind={res.kind}"]
    if res.generator is not None:
        notes.append(f"generator={res.generator!r}")
    if res.note:
        notes.append(res.note)
    return co.ConfigReport(verdict, 0, [], notes)


def _right_intersect(s="a", t="b", bound=None):
    """Generators of the right ideal intersection TM n SM, searched up to --bound edges.

    The verdict is pass, with no search, when neither trunk word of S and T
    is a prefix of the other: the trunk of T A is trunk(T) trunk(A), so
    T A = S A' would make one trunk a prefix of the other, and TM n SM is
    empty.  Otherwise it is inconclusive, since the search stops at its caps,
    or earlier at the enumeration budget."""
    S = eval_term(s, "flad")[1]
    T = eval_term(t, "flad")[1]
    cap = len(S.edges) + len(T.edges) + 4 if bound is None else _size("bound", bound)
    s_trunk, t_trunk = xtree.trunk_word(S), xtree.trunk_word(T)
    n = min(len(s_trunk), len(t_trunk))
    if s_trunk[:n] != t_trunk[:n]:
        return co.ConfigReport("pass", cap, [], [f"|Z| = 0 at edge cap {cap}"])
    caps = (f"cofactors of at most {cap} edges (factor_edges) and elements of at most {cap} "
            "edges (max_edges)")
    try:
        Z = co.right_ideal_intersection_FLAd(S, T, max_edges=cap, factor_edges=cap)
    except xtree.ResourceGuardError as err:
        notes = [f"trunks comparable; the search under the caps stopped ({err}): {caps}"]
    else:
        notes = [f"|Z| = {len(Z)} at edge cap {cap}"] + [repr(v) for v in Z]
        notes.append(f"trunks comparable; searched only under the caps: {caps}")
    return co.ConfigReport("inconclusive", cap, [], notes)


def _mm_fi_iso(bound=4):
    """The isomorphism of M(F, X) and Munn trees, on every word of <= --bound letters."""
    bound = _size("bound", bound)
    # (letter, its MM step, its Munn step) for x, x^-1, y, y^-1
    steps = []
    for name in "xy":
        gen = ex.mm_generator(name)
        for letter, step in (((name, 1), gen), ((name, -1), ex.mm_inverse(gen))):
            steps.append((letter, step, sch.munn_from_word((letter,))))
    failures = []
    stack = [((), ex.mm_identity(), sch.MUNN_ONE)]
    while stack:
        seq, mm, mun = stack.pop()
        if ex.mm_to_munn(mm) != mun or ex.munn_to_mm(mun) != mm:
            failures.append(("iso", {"word": seq}))
        if len(seq) < bound:
            for letter, mm_step, munn_step in steps:
                mm2 = ex.mm_multiply(mm, mm_step)
                stack.append((seq + (letter,), mm2, sch.munn_multiply(mun, munn_step)))
    return co._finish(bound, failures)


def _theta_morphism(gamma=None, delta=None, bound=None):
    """theta's morphism law on the free product of C-words (one pair, or all
    pairs up to --bound letters); no map on FLAd or FAd trees is checked."""
    if gamma is not None or delta is not None:
        if bound is not None:
            raise ValueError("--bound cannot be combined with --gamma/--delta")
        cs, ds = [cx_from_term(gamma or "1")], [cx_from_term(delta or "1")]
        bound = 0  # the depth the report gives
    else:
        bound = 2 if bound is None else _size("bound", bound)
        letters: List[Any] = [("a",), ("b",)]
        letters += [xtree.tree_plus(xtree.letter_tree(x)) for x in "ab"]
        cs = ds = list(dict.fromkeys(
            et.CXWord.make(list(seq))
            for k in range(bound + 1)
            for seq in itertools.product(letters, repeat=k)
        ))
    failures = [("theta", {"gamma": repr(c), "delta": repr(d)})
                for c, d in et.theta_morphism_check(cs, ds)]
    return co._finish(bound, failures)


CHECKS = {
    "forbidden-config": _forbidden_config,
    "bgr": _bgr,
    "ghe": _ghe,
    "triangle": _triangle,
    "lemma-m-n": _lemma_m_n,
    "annihilator": _annihilator,
    "left-intersect": _left_intersect,
    "right-intersect": _right_intersect,
    "mm-fi-iso": _mm_fi_iso,
    "theta-morphism": _theta_morphism,
}

EXIT_CODES = {"pass": 0, "fail": 1, "inconclusive": 2}


def _report_exit(report: co.ConfigReport) -> int:
    print(json.dumps(report.to_json(), indent=2, sort_keys=True, default=repr))
    return EXIT_CODES[report.verdict]


def run_check(name: str, args) -> int:
    params = {k: v for k, v in vars(args).items() if k not in ("command", "name")}
    return _report_exit(CHECKS[name](**params))


# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, like every other error (2 means inconclusive)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def _parser() -> Tuple[argparse.ArgumentParser, Dict[str, argparse.ArgumentParser]]:
    """The root parser and, by name, the parsers of `eval` and of each check.
    Built on the first call only: the per-check parsers take ~3 ms, and
    `main` may run many times in one process."""
    parser = _Parser(prog="ehres", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a term in a model")
    p_eval.add_argument("term")
    p_eval.add_argument("--model", default="fad")
    p_eval.add_argument("--format", default="json", choices=("json", "dot", "text"))
    leaves = {"eval": p_eval}

    p_check = sub.add_parser("check", help="run a certificate check")
    checks = p_check.add_subparsers(dest="name", required=True)
    for name, fn in CHECKS.items():
        # an option not given is left out, so the signature's default applies;
        # no prefixes, so `--b` of one check is never `--bound` of another
        p = leaves[name] = checks.add_parser(
            name, description=inspect.getdoc(fn),
            argument_default=argparse.SUPPRESS, allow_abbrev=False)
        for param in inspect.signature(fn).parameters:
            p.add_argument("--" + param, type=int if param in ("depth", "bound") else str)
    return parser, leaves


def main(argv: Optional[List[str]] = None) -> int:
    parser, leaves = _parser()
    args, extra = parser.parse_known_args(argv)
    if extra:
        # the root parser would report them under its own usage
        leaves[args.name if args.command == "check" else "eval"].error(
            f"unrecognized arguments: {' '.join(extra)}")
    try:
        if args.command == "eval":
            structure, value = eval_term(args.term, args.model)
            print(structure.render(value, args.format))
            return 0
        return run_check(args.name, args)
    except (ValueError, xtree.ResourceGuardError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (RecursionError, MemoryError) as err:
        # only xtree._codes can still recurse: the interpreter compares two
        # deep sibling codes with a long common prefix recursively
        print(f"error: input too large to compute ({type(err).__name__}: {err})",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
