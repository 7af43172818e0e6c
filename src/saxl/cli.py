"""Batch command-line front-end.

Three commands: ``analyze`` builds one permutation action and emits its full
JSON report, ``graph`` exports the base-pair graph as DOT or an edge list,
and ``verify`` runs named verification sweeps (closed-form criteria and
closed forms of Q against brute force, counting formulas, fixture tables,
cliques, the class estimates, totient scans) and reports machine-readable
per-check results.  The release gate in ``tests/test_acceptance.py`` runs
these same sweeps.

``_build_parser`` declares every option with its default and the runs that
read it, and ``_SWEEPS`` the options each sweep reads and its default
``--qmax``.  An option that the chosen command, action selector or sweep
would not read is refused before anything runs.  The cap options make one
:class:`~saxl.actions.Caps`, which each action constructor meets before it
builds; its exact-search cap is set only for ``analyze --exact``.

Exit codes: 0 success, 2 resource cap exceeded, 3 an internal cross-check
between two computation routes failed, 1 any other failure (bad arguments,
unknown names, failed verification).  Output is deterministic:
identical invocations produce byte-identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from .actions import (
    DEFAULT_CAPS,
    LINE_INF,
    Caps,
    GroupVariant,
    LabelledAction,
    _within_caps,
    bundled_catalogue_path,
    c3_canonical_logs,
    c3_isotropic,
    c3_label_logs,
    ksubset_action,
    load_catalogue,
    psl2_c2_action,
    psl2_c3_action,
)
from .engine import (
    build_report,
    check_star,
    clique_and_independence_exact,
    is_base_pair,
    lemma_calc_bound,
    q_exact,
    q_hat,
    q_tilde,
    regular_suborbit_count,
    saxl_graph,
)
from .gf import (
    LOG_ZERO,
    count_nonsquare_nonsubfield,
    euler_bound_scan,
    field_from_order,
    is_square,
    log_neg,
    prime_powers,
    split_prime_power,
)
from .group import CapExceeded, CrossCheckFailed
from . import criteria

VARIANT_NAMES = {
    "psl": "PSL2",
    "pgl": "PGL2",
    "psigma": "PSigmaL2",
    "pgamma": "PGammaL2",
    "dphi": "DeltaPhi",
}


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 on usage errors (2 is reserved for cap hits),
    and starts every parse with no option given."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.set_defaults(given=())

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


class _Option(argparse.Action):
    """An option that stores its value and adds itself to ``args.given``.

    ``needs`` is omitted when every run of the command reads the option, else
    a pair (where, reads): ``reads(args)`` tells whether this run reads it,
    and ``where`` ends the refusal "OPTION is only read WHERE".  With
    ``nargs=0`` the option is a switch, and giving it stores True.
    """

    def __init__(self, option_strings, dest, needs=(None, None), **kwargs):
        super().__init__(option_strings, dest, **kwargs)
        self.where, self.reads = needs

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, True if self.nargs == 0 else values)
        namespace.given += (self,)


def _build_parser() -> _Parser:
    """Every option, its default, and which runs read it."""
    parser = _Parser(prog="saxl", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_action_spec(p):
        opt = partial(p.add_argument, action=_Option)
        opt("--catalogue", metavar="NAME", help="bundled coset-action fixture")
        opt("--catalogue-path", metavar="FILE", help="alternative catalogue file",
            needs=("with --catalogue", lambda a: a.catalogue is not None))
        opt("--psl2", choices=("c2", "c3"), help="projective family: pairs (c2) or unitary (c3)")
        with_psl2 = ("with --psl2", lambda a: a.psl2 is not None)
        opt("--q", type=int, help="field size for --psl2", needs=with_psl2)
        opt("--variant", choices=sorted(VARIANT_NAMES), default="psl", needs=with_psl2)
        opt("--j", type=int, default=1, help="twist exponent for --variant dphi",
            needs=("with --psl2 --variant dphi", lambda a: a.psl2 is not None and a.variant == "dphi"))
        opt("--ksubsets", type=int, nargs=2, metavar=("N", "K"), help="symmetric group on k-subsets")
        opt("--alternating", nargs=0, default=False, help="use the alternating group with --ksubsets",
            needs=("with --ksubsets", lambda a: a.ksubsets is not None))
        opt("--point-cap", type=int, default=DEFAULT_CAPS.point_cap, help="override the point cap")
        opt("--group-cap", type=int, default=DEFAULT_CAPS.group_cap, help="override the group-order cap")
        opt("--exact-cap", type=int, default=2000, help="override the exact-search cap",
            needs=("by analyze --exact", _exact_search))
        opt("--out", metavar="FILE", help="write output here instead of stdout")

    p_an = sub.add_parser("analyze", help="full JSON report for one action")
    add_action_spec(p_an)
    switch = partial(p_an.add_argument, action=_Option, nargs=0, default=False)
    switch("--no-classes", help="skip the class-sum bounds")
    switch("--no-star", help="skip the common-neighbour check")
    p_an.add_argument("--clique-target", action=_Option, type=int, help="greedy clique size to certify")
    switch("--exact", help="exact clique/independence search")

    p_gr = sub.add_parser("graph", help="export the base-pair graph")
    add_action_spec(p_gr)
    p_gr.add_argument("--format", action=_Option, dest="fmt", choices=("dot", "edges"), default="dot")

    def read_by_sweeps(flag):
        names = [name for name, sweep in _SWEEPS.items() if flag in sweep.reads]
        return "by verify " + ", ".join(names), lambda a: a.sweep in names

    p_ve = sub.add_parser("verify", help="run a named verification sweep")
    p_ve.add_argument("sweep", help="one of: %s" % ", ".join(_SWEEPS))
    opt = partial(p_ve.add_argument, action=_Option)
    opt("--qmax", type=int, help="largest field size to sweep, inclusive", needs=read_by_sweeps("--qmax"))
    opt("--nmax", type=int, default=10**6, help="scan limit for the totient sweep", needs=read_by_sweeps("--nmax"))
    where, by_sweep = read_by_sweeps("--per-field")
    opt("--per-field", type=int, default=1000, help="witness inputs per large field",
        needs=(where + " with --qmax at least %d" % min(_WITNESS_ARITHMETIC_FIELDS),
               lambda a: by_sweep(a) and bool(_upto(a, _WITNESS_ARITHMETIC_FIELDS))))
    opt("--catalogue-path", metavar="FILE", help="alternative catalogue file",
        needs=read_by_sweeps("--catalogue-path"))
    opt("--out", metavar="FILE", help="write output here instead of stdout")
    return parser


def _check_args(args) -> None:
    """Refuse, with a ValueError, arguments that no run can use as given:
    an unknown sweep, a value out of range, not exactly one action selector,
    or an option this run would not read."""
    if args.command == "verify":
        if args.sweep not in _SWEEPS:
            raise ValueError("unknown sweep %r (have: %s)" % (args.sweep, ", ".join(_SWEEPS)))
        if args.per_field < 1:
            raise ValueError("--per-field must be at least 1, got %d" % args.per_field)
        if args.nmax < 3:
            raise ValueError("--nmax must be at least 3, got %d" % args.nmax)
    else:
        if sum(x is not None for x in (args.catalogue, args.psl2, args.ksubsets)) != 1:
            raise ValueError("give exactly one of --catalogue, --psl2, --ksubsets")
        if args.psl2 is not None and args.q is None:
            raise ValueError("--psl2 needs --q")
        if min(args.point_cap, args.group_cap, args.exact_cap) <= 0:
            raise ValueError("caps must be positive")
        if args.command == "analyze" and args.clique_target is not None and args.clique_target < 2:
            raise ValueError("target must be at least 2")
    for option in args.given:
        if option.reads is not None and not option.reads(args):
            raise ValueError("%s is only read %s" % (option.option_strings[0], option.where))


def _exact_search(args) -> bool:
    """Whether this run asks for an exact clique search."""
    return args.command == "analyze" and args.exact


def _caps(args) -> Caps:
    """The caps of the command line; the exact-search cap is set only for
    analyze --exact, so that the constructors refuse its degree before the
    build."""
    return Caps(args.point_cap, args.group_cap, args.exact_cap if _exact_search(args) else None)


def build_action(args) -> LabelledAction:
    caps = _caps(args)
    if args.catalogue is not None:
        entries = load_catalogue(args.catalogue_path or bundled_catalogue_path(), caps=caps)
        if args.catalogue not in entries:
            raise ValueError(
                "unknown catalogue entry %r (have: %s)"
                % (args.catalogue, ", ".join(sorted(entries)))
            )
        return entries[args.catalogue].action(caps)
    if args.psl2 is not None:
        q = args.q
        ctor, degree = (psl2_c2_action, q * (q + 1) // 2) if args.psl2 == "c2" else (psl2_c3_action, q * (q - 1) // 2)
        # the degree needs no factoring of q, which GroupVariant does by trial
        # division: a huge q meets the point cap first
        _within_caps(degree, None, caps)
        variant = GroupVariant(VARIANT_NAMES[args.variant], q, args.j if args.variant == "dphi" else 0)
        return ctor(variant, caps=caps)
    n, k = args.ksubsets
    return ksubset_action(n, k, even_only=args.alternating, caps=caps)


def _emit(chunks: Iterable[str], out: str | None) -> None:
    if out is None:
        sys.stdout.writelines(chunks)
    else:
        with open(out, "w") as f:
            f.writelines(chunks)


def cmd_analyze(args) -> int:
    action = build_action(args)
    report = build_report(
        action,
        with_classes=not args.no_classes,
        with_star=not args.no_star,
        clique_target=args.clique_target,
        exact_search=args.exact,
    )
    _emit([report.to_json()], args.out)
    return 0


def cmd_graph(args) -> int:
    action = build_action(args)
    for w in action.warnings:
        sys.stderr.write("warning: %s\n" % w)
    graph = saxl_graph(action)
    _emit(graph.to_dot() if args.fmt == "dot" else graph.to_edge_list(), args.out)
    return 0


# -- verification sweeps -----------------------------------------------------------


def _check(name: str, ok: bool, detail: str) -> dict:
    return {"name": name, "ok": bool(ok), "detail": detail}


def _table_rows() -> dict:
    """The frozen (r, Q) rows of the bundled fixtures, by catalogue name."""
    return json.loads((Path(__file__).parent / "data" / "table_rows.json").read_text())


def _qmax(args) -> int | None:
    """The largest field size the sweep covers: --qmax when given, else the
    sweep's default cap (None: no cap)."""
    return _SWEEPS[args.sweep].qmax if args.qmax is None else args.qmax


def _upto(args, fields) -> list[int]:
    """The field sizes of ``fields`` up to :func:`_qmax`, inclusive."""
    qmax = _qmax(args)
    return [q for q in fields if qmax is None or q <= qmax]


def _fixture_actions(args) -> Iterator[tuple[str, LabelledAction]]:
    """(name, action) for each fixture of the frozen table rows, one at a
    time, from the catalogue at --catalogue-path or the bundled one."""
    path = args.catalogue_path or bundled_catalogue_path()
    entries = load_catalogue(path)
    for name in _table_rows():
        if name not in entries:
            raise ValueError("catalogue %s has no entry %r" % (path, name))
        yield name, entries[name].action()


def _sweep_table_rows(args) -> list[dict]:
    expected = _table_rows()
    checks = []
    for name, action in _fixture_actions(args):
        want = expected[name]
        r = regular_suborbit_count(action)
        q = q_exact(action)
        want_q = Fraction(want["q"]["num"], want["q"]["den"])
        ok = r == want["r"] and q == want_q
        checks.append(
            _check(
                "table-row %s" % name,
                ok,
                "r=%d Q=%s (want r=%d Q=%s)" % (r, q, want["r"], want_q),
            )
        )
    return checks


def _edge_disagreements(graph, row) -> int:
    """The pairs a < b on which the engine's graph and the criterion disagree;
    ``row(a)`` is the criterion's boolean row over b = a + 1, ..., n - 1."""
    return sum(int(np.count_nonzero(graph.row(a)[a + 1 :] != row(a))) for a in range(graph.n))


def _oracle_check(name: str, action, row) -> dict:
    """The engine's graph of ``action`` against the criterion's rows ``row(a)``, on every pair."""
    n = action.degree
    mismatches = _edge_disagreements(saxl_graph(action), row)
    return _check(name, mismatches == 0, "%d pairs, %d mismatches" % (n * (n - 1) // 2, mismatches))


# the field sizes of the oracle sweeps; the default --qmax stops short of the last two
_ORACLE_FIELDS = (5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 49, 81)


def _sweep_c2_oracle(args) -> list[dict]:
    checks = []
    for q in _upto(args, _ORACLE_FIELDS):
        action = psl2_c2_action(GroupVariant("PSigmaL2", q))
        F = field_from_order(q)
        ends = np.array(action.labels)
        P, R = ends[:, 0], ends[:, 1]

        def row(a):
            return criteria.c2_pair_base(F, (P[a], R[a]), (P[a + 1 :], R[a + 1 :]))

        checks.append(_oracle_check("c2-oracle PSigmaL2 q=%d" % q, action, row))
    return checks


def _sweep_c3_oracle(args) -> list[dict]:
    rows = []
    for q in _upto(args, _ORACLE_FIELDS):
        rows.append((q, "PSL2", "G0"))
        if split_prime_power(q)[1] >= 2:
            rows.append((q, "PSigmaL2", "PSigmaL"))
    checks = []
    for q, family, variant in rows:
        action = psl2_c3_action(GroupVariant(family, q))
        F2 = field_from_order(q * q)
        xs = np.array(action.labels)

        def row(a):
            if xs[a] == LOG_ZERO:  # alpha
                return criteria.c3_base(F2, variant, xs[a + 1 :])
            return criteria.c3_pair_base(F2, variant, xs[a], xs[a + 1 :])

        checks.append(_oracle_check("c3-oracle %s q=%d" % (family, q), action, row))
    return checks


def _sweep_johnson(args) -> list[dict]:
    checks = []
    for q in _upto(args, (4, 8, 9, 13)):
        action = psl2_c2_action(GroupVariant("PGL2", q))
        graph = saxl_graph(action)
        ends = np.array(action.labels)
        n = action.degree

        def meets_once(a):
            rest = ends[a + 1 :]
            return (rest[:, :, None] == ends[a]).sum(axis=(1, 2)) == 1

        bad = _edge_disagreements(graph, meets_once)
        r = regular_suborbit_count(action)
        checks.append(
            _check(
                "johnson PGL2 q=%d" % q,
                n == q * (q + 1) // 2 and bad == 0 and r == 1,
                "%d edge disagreements, r=%d" % (bad, r),
            )
        )
    return checks


def _sweep_counts(args) -> list[dict]:
    checks = []
    for q in _upto(args, (9, 25, 49)):
        F = field_from_order(q)
        valency, r = criteria.c2_counts(F)
        action = psl2_c2_action(GroupVariant("PSigmaL2", q))
        graph = saxl_graph(action)
        r_brute = regular_suborbit_count(action)
        checks.append(
            _check(
                "c2-counts q=%d" % q,
                (valency, r) == (graph.valency, r_brute),
                "formula (%d, %d) brute (%d, %d)" % (valency, r, graph.valency, r_brute),
            )
        )
    for q in _upto(args, (11, 13, 17, 19)):
        action = psl2_c3_action(GroupVariant("PSL2", q))
        r_brute = regular_suborbit_count(action)
        r_formula = criteria.c3_regular_count_prime(q)
        checks.append(
            _check(
                "c3-regular-count q=%d" % q,
                r_formula == r_brute,
                "formula %d brute %d" % (r_formula, r_brute),
            )
        )
    for q in _upto(args, (13,)):
        m = count_nonsquare_nonsubfield(field_from_order(q))
        graph = saxl_graph(psl2_c2_action(GroupVariant("PSL2", q)))
        predicted = m * (q - 1) // 2 + 2 * (q - 1)
        checks.append(
            _check(
                "c2-meeting-edges q=%d" % q,
                predicted == graph.valency,
                "m(q-1)/2 + 2(q-1) = %d, brute valency %d" % (predicted, graph.valency),
            )
        )
    return checks


def _base_two_l_actions(args) -> Iterator[tuple[str, LabelledAction]]:
    """(name, action) for every constructible pair/unitary action with
    4 <= q <= --qmax that is primitive and base-two, in deterministic order,
    one at a time."""
    for p, f, q in prime_powers(4, _qmax(args) + 1):
        families = [("PSL2", 0), ("PGL2", 0)] if q % 2 else [("PSL2", 0)]
        if f >= 2:
            families.append(("PSigmaL2", 0))
            if q % 2:
                families.append(("PGammaL2", 0))
                families.extend(("DeltaPhi", j) for j in range(1, f))
        for kind, ctor in (("c2", psl2_c2_action), ("c3", psl2_c3_action)):
            if kind == "c3" and q % 2 == 0:
                continue
            for family, j in families:
                try:
                    variant = GroupVariant(family, q, j)
                except ValueError:
                    continue
                action = ctor(variant)
                if not action.group.is_primitive() or regular_suborbit_count(action) < 1:
                    continue
                tag = "(j=%d)" % j if j else ""
                yield "%s %s q=%d%s" % (kind, family, q, tag), action


def _sweep_star(args) -> list[dict]:
    checks = []
    for name, action in _base_two_l_actions(args):
        ok, witnesses = check_star(action)
        missing = sum(1 for w in witnesses.values() if w is None)
        checks.append(_check("star %s" % name, ok and bool(witnesses), "%d suborbit reps, %d without witness" % (len(witnesses), missing)))
    for name, action in _fixture_actions(args):
        ok, witnesses = check_star(action)
        checks.append(_check("star fixture %s" % name, ok and bool(witnesses), "%d suborbit reps" % len(witnesses)))
    return checks


# the fields whose witnesses are checked by arithmetic alone, --per-field inputs each
_WITNESS_ARITHMETIC_FIELDS = (49, 81)


def _sweep_witnesses(args) -> list[dict]:
    checks = []
    # small fields: point 0 is alpha, and every valid input (there must be
    # some) has both witness edges checked against the engine
    for q in _upto(args, (9, 13)):
        F = field_from_order(q)
        action = psl2_c2_action(GroupVariant("PSigmaL2", q))
        graph = saxl_graph(action)
        index = action.label_index
        ok = action.labels[0] == (LINE_INF, LOG_ZERO)
        b, c = criteria.c2_base_candidates(F, (F.q - 1) ** 2)  # every alpha-neighbour pair
        criteria.c2_common_neighbour_witness(F, b, c)
        # the witnessed common neighbour of alpha and (b, c) is gamma = (-b, -c)
        betas = np.sort(np.stack([b, c], 1), axis=1)
        gammas = np.sort(log_neg(F, betas), axis=1)
        for beta, gamma in zip(betas.tolist(), gammas.tolist()):
            bi, gi = index[tuple(beta)], index[tuple(gamma)]
            ok &= graph.has_edge(0, gi) and graph.has_edge(bi, gi)
        checks.append(_check("c2-witness q=%d (engine-checked)" % q, ok and len(b) > 0, "%d inputs" % len(b)))
    for q in _upto(args, (9, 13)):
        F2 = field_from_order(q * q)
        family = "PSigmaL2" if split_prime_power(q)[1] > 1 else "PSL2"
        action = psl2_c3_action(GroupVariant(family, q))
        graph = saxl_graph(action)
        index = action.label_index
        ok = action.labels[0] == LOG_ZERO
        b = np.array(c3_label_logs(F2, q), dtype=np.int64)
        b = b[criteria.c3_base(F2, "PSigmaL", b)]
        criteria.c3_common_neighbour_witness(F2, b)
        # the witnessed common neighbour is omega_{-b}
        for L, c in zip(b.tolist(), c3_canonical_logs(F2, q, log_neg(F2, b)).tolist()):
            bi, ci = index[L], index[c]
            ok &= graph.has_edge(0, ci) and graph.has_edge(bi, ci)
        checks.append(_check("c3-witness q=%d (engine-checked)" % q, ok and len(b) > 0, "%d inputs" % len(b)))
    # large fields: the constructors verify their own identities arithmetically,
    # on the first --per-field inputs at once
    target = args.per_field
    for q in _upto(args, _WITNESS_ARITHMETIC_FIELDS):
        F = field_from_order(q)
        b, c = criteria.c2_base_candidates(F, target)
        criteria.c2_common_neighbour_witness(F, b, c)
        checks.append(_check("c2-witness q=%d (arithmetic)" % q, len(b) >= target, "%d inputs" % len(b)))
    for q in _upto(args, _WITNESS_ARITHMETIC_FIELDS):
        F2 = field_from_order(q * q)
        b = np.arange(F2.q - 1)
        b = b[~c3_isotropic(F2, q, b)]
        b = b[criteria.c3_base(F2, "PSigmaL", b)][:target]
        criteria.c3_common_neighbour_witness(F2, b)
        checks.append(_check("c3-witness q=%d (arithmetic)" % q, len(b) >= target, "%d inputs" % len(b)))
    return checks


def _sweep_euler(args) -> list[dict]:
    violations = euler_bound_scan(args.nmax)
    checks = [
        _check(
            "euler-lower-bound n<=%d" % args.nmax,
            not violations,
            "%d violations" % len(violations),
        )
    ]
    checked, bad = criteria.euler_phi_4f_scan(10**4)
    checks.append(
        _check("phi(q-1)>=4f (odd non-prime q<10^4)", checked > 0 and not bad, "%d checked, %d violations" % (checked, len(bad)))
    )
    checked, bad = criteria.c3_valency_bound_scan(10**3)
    checks.append(
        _check("phi(q^2-1)>=4f(q+1) (odd q<10^3)", checked > 0 and not bad, "%d checked, %d violations" % (checked, len(bad)))
    )
    return checks


def _clique5_fields(qmax: int) -> list[int]:
    """The field sizes 29 <= q <= qmax of the 5-clique constructions: odd
    and not prime."""
    return [q for p, f, q in prime_powers(29, qmax + 1) if p != 2 and f > 1]


def _alpha_clique_ok(verts, is_alpha, alpha_edge, pair_edge) -> bool:
    """Whether verts is a 5-clique with alpha first: each later vertex is
    alpha's neighbour, and every two of them are adjacent.  The later
    vertices go in as one array, a row each: alpha_edge gets all four, and
    pair_edge the two sides of all six pairs."""
    if len(verts) != 5 or not is_alpha(verts[0]):
        return False
    rest = np.array(verts[1:])
    u, v = map(list, zip(*combinations(range(4), 2)))
    return bool(alpha_edge(rest).all() and pair_edge(rest[u], rest[v]).all())


def _sweep_clique5(args) -> list[dict]:
    # the constructors check their own edges; all ten are checked again here
    checks = []
    for q in _clique5_fields(_qmax(args)):
        F, F2 = field_from_order(q), field_from_order(q * q)
        c2 = criteria.c2_clique5(F)
        c3 = criteria.c3_clique5(F2)
        ok = _alpha_clique_ok(
            c2,
            lambda v: v == (LINE_INF, LOG_ZERO),
            lambda rows: criteria.c2_base_psigma(F, *rows.T),
            lambda us, vs: criteria.c2_pair_base(F, us.T, vs.T),
        ) and _alpha_clique_ok(
            c3,
            lambda v: v == LOG_ZERO,
            lambda rows: criteria.c3_base(F2, "PSigmaL", rows),
            lambda us, vs: criteria.c3_pair_base(F2, "PSigmaL", us, vs),
        )
        checks.append(_check("clique5 q=%d" % q, ok, "c2 %d vertices, c3 %d vertices" % (len(c2), len(c3))))
    return checks


def _sweep_cliques(args) -> list[dict]:
    got = tuple(map(len, clique_and_independence_exact(ksubset_action(5, 2, even_only=True))))
    checks = [_check("exact A5/2-subsets", got == (4, 2), "clique %d, independence %d (want 4, 2)" % got)]
    # socle cliques of size (q-1)/2 through alpha, every edge in the engine's graph
    for q in _upto(args, (9, 13, 25)):
        F2 = field_from_order(q * q)
        labels = np.array(c3_label_logs(F2, q))
        pts = criteria.c3_clique(F2, int(labels[~is_square(F2, labels)][0]))
        action = psl2_c3_action(GroupVariant("PSL2", q))
        graph = saxl_graph(action)
        idx = [action.label_index[pt] for pt in pts]
        missing = sum(1 for a, b in combinations(idx, 2) if not graph.has_edge(a, b))
        checks.append(
            _check(
                "c3-clique q=%d (engine-checked)" % q,
                len(pts) >= (q - 1) // 2 and missing == 0,
                "%d points, %d edges missing" % (len(pts), missing),
            )
        )
    # the 5-cliques of the extension groups, each pair a base of the permutation
    # action, whose suborbit analysis checks every representative by two routes
    for q in _clique5_fields(_qmax(args)):
        F, F2 = field_from_order(q), field_from_order(q * q)
        c2_act = psl2_c2_action(GroupVariant("PSigmaL2", q))
        c2_idx = [c2_act.label_index[v] for v in criteria.c2_clique5(F)]
        c3_act = psl2_c3_action(GroupVariant("PSigmaL2", q))
        c3_idx = [c3_act.label_index[pt] for pt in criteria.c3_clique5(F2)]
        bad = sum(1 for a, b in combinations(c2_idx, 2) if not is_base_pair(c2_act, a, b))
        bad += sum(1 for a, b in combinations(c3_idx, 2) if not is_base_pair(c3_act, a, b))
        checks.append(
            _check(
                "clique5 q=%d (engine-checked)" % q,
                len(c2_idx) == len(c3_idx) == 5 and bad == 0,
                "c2 %d and c3 %d vertices, %d non-base pairs" % (len(c2_idx), len(c3_idx), bad),
            )
        )
    return checks


def _sweep_closed_forms(args) -> list[dict]:
    rows = [(q, "PGL_Dq_minus_1", "PGL2", psl2_c2_action) for q in _upto(args, (8, 9, 11, 13, 16))]
    for q in _upto(args, (13, 17, 29)):
        rows += [(q, "Dq_minus_1", "PSL2", psl2_c2_action), (q, "Dq_plus_1", "PSL2", psl2_c3_action)]
    checks = []
    for q, kind, family, ctor in rows:
        form = criteria.remark_q_closed_forms(q, kind)
        got = q_exact(ctor(GroupVariant(family, q)))
        checks.append(_check("closed-form %s q=%d" % (kind, q), got == form, "Q=%s, closed form %s" % (got, form)))
    return checks


def _sweep_estimates(args) -> list[dict]:
    checks = []
    for name, action in _fixture_actions(args):
        lo, mid, hi = q_exact(action), q_hat(action), q_tilde(action)
        checks.append(_check("estimates %s" % name, lo <= mid <= hi, "Q=%s Q-hat=%s Q-tilde=%s" % (lo, mid, hi)))
    value = lemma_calc_bound(156, 135135, 2)
    checks.append(_check("lemma-bound A=156 B=135135 c=2", value < Fraction(1, 4), "%s < 1/4" % value))
    return checks


class _Sweep(NamedTuple):
    """A verification sweep: its function, the options it reads besides
    --out (a sweep over field sizes reads --qmax), and its default --qmax
    (None: no cap)."""

    run: Callable[[argparse.Namespace], list[dict]]
    reads: tuple[str, ...]
    qmax: int | None = None


_SWEEPS = {
    "table-rows": _Sweep(_sweep_table_rows, ("--catalogue-path",)),
    "c2-oracle": _Sweep(_sweep_c2_oracle, ("--qmax",), 27),
    "c3-oracle": _Sweep(_sweep_c3_oracle, ("--qmax",), 25),
    "johnson": _Sweep(_sweep_johnson, ("--qmax",)),
    "counts": _Sweep(_sweep_counts, ("--qmax",)),
    "star": _Sweep(_sweep_star, ("--qmax", "--catalogue-path"), 27),
    "witnesses": _Sweep(_sweep_witnesses, ("--qmax", "--per-field")),
    "euler": _Sweep(_sweep_euler, ("--nmax",)),
    "clique5": _Sweep(_sweep_clique5, ("--qmax",), 200),
    "closed-forms": _Sweep(_sweep_closed_forms, ("--qmax",)),
    "cliques": _Sweep(_sweep_cliques, ("--qmax",), 49),
    "estimates": _Sweep(_sweep_estimates, ("--catalogue-path",)),
}


def cmd_verify(args) -> int:
    checks = _SWEEPS[args.sweep].run(args)
    # a sweep that checked nothing (say, --qmax below its first field) proves nothing
    passed = bool(checks) and all(c["ok"] for c in checks)
    payload = {"schema": 1, "sweep": args.sweep, "ok": passed, "checks": checks}
    _emit([json.dumps(payload, indent=2) + "\n"], args.out)
    return 0 if passed else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_args(args)
        if args.command == "analyze":
            return cmd_analyze(args)
        if args.command == "graph":
            return cmd_graph(args)
        return cmd_verify(args)
    except CapExceeded as exc:
        sys.stderr.write("cap exceeded: %s\n" % exc)
        return 2
    except CrossCheckFailed as exc:
        sys.stderr.write("error: cross-check failed: %s\n" % exc)
        return 3
    except (ValueError, KeyError, OSError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
