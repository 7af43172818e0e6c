"""Batch command-line front-end.

Three commands: ``analyze`` builds one permutation action and emits its full
JSON report, ``graph`` exports the base-pair graph as DOT or an edge list,
and ``verify`` runs named verification sweeps (closed-form criteria and
closed forms of Q against brute force, counting formulas, fixture tables,
cliques, the class estimates, totient scans) and reports machine-readable
per-check results.  The release gate in ``tests/test_acceptance.py`` runs
these same sweeps.

Exit codes: 0 success, 2 resource cap exceeded, 3 an internal cross-check
between two computation routes failed, 1 any other failure (bad arguments,
unknown names, failed verification).  Output is deterministic:
identical invocations produce byte-identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations
from pathlib import Path

from .actions import (
    ALPHA,
    INF,
    GroupVariant,
    LabelledAction,
    OmegaPoint,
    bundled_catalogue_path,
    c3_canonical_log,
    c3_label_logs,
    coset_action,
    ksubset_action,
    load_catalogue,
    proj_pair_labels,
    proj_pair_payload,
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
    count_nonsquare_nonsubfield,
    euler_bound_scan,
    field_create,
    field_from_order,
    is_square,
    split_prime_power,
)
from .group import CapExceeded, Caps, CrossCheckFailed, DEFAULT_CAPS
from . import criteria

VARIANT_NAMES = {
    "psl": "PSL2",
    "pgl": "PGL2",
    "psigma": "PSigmaL2",
    "pgamma": "PGammaL2",
    "dphi": "DeltaPhi",
}

@dataclass(frozen=True)
class RunConfig:
    """Everything one invocation needs; exactly one action spec is set for
    analyze/graph."""

    command: str
    catalogue: str | None = None
    catalogue_path: str | None = None
    psl2: str | None = None
    q: int | None = None
    variant: str | None = None
    j: int = 1
    ksubsets: tuple[int, int] | None = None
    alternating: bool = False
    caps: Caps = DEFAULT_CAPS
    out: str | None = None
    fmt: str = "dot"
    with_classes: bool = True
    with_star: bool = True
    clique_target: int | None = None
    exact_search: bool = False
    sweep: str | None = None
    qmax: int | None = None
    nmax: int | None = None
    per_field: int = 1000


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 on usage errors (2 is reserved for cap hits)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


def _build_parser() -> _Parser:
    parser = _Parser(prog="saxl", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_action_spec(p):
        p.add_argument("--catalogue", metavar="NAME", help="bundled coset-action fixture")
        p.add_argument("--catalogue-path", metavar="FILE", help="alternative catalogue file")
        p.add_argument("--psl2", choices=("c2", "c3"), help="projective family: pairs (c2) or unitary (c3)")
        p.add_argument("--q", type=int, help="field size for --psl2")
        p.add_argument("--variant", choices=sorted(VARIANT_NAMES), default="psl")
        p.add_argument("--j", type=int, default=1, help="twist exponent for --variant dphi")
        p.add_argument("--ksubsets", type=int, nargs=2, metavar=("N", "K"), help="symmetric group on k-subsets")
        p.add_argument("--alternating", action="store_true", help="use the alternating group with --ksubsets")
        p.add_argument("--point-cap", type=int, help="override the point cap")
        p.add_argument("--group-cap", type=int, help="override the group-order cap")
        p.add_argument("--exact-cap", type=int, help="override the exact-search cap")
        p.add_argument("--out", metavar="FILE", help="write output here instead of stdout")

    p_an = sub.add_parser("analyze", help="full JSON report for one action")
    add_action_spec(p_an)
    p_an.add_argument("--no-classes", action="store_true", help="skip the class-sum bounds")
    p_an.add_argument("--no-star", action="store_true", help="skip the common-neighbour check")
    p_an.add_argument("--clique-target", type=int, help="greedy clique size to certify")
    p_an.add_argument("--exact", action="store_true", help="exact clique/independence search")

    p_gr = sub.add_parser("graph", help="export the base-pair graph")
    add_action_spec(p_gr)
    p_gr.add_argument("--format", dest="fmt", choices=("dot", "edges"), default="dot")

    p_ve = sub.add_parser("verify", help="run a named verification sweep")
    p_ve.add_argument("sweep", help="one of: %s" % ", ".join(_SWEEP_FUNCS))
    p_ve.add_argument("--qmax", type=int, help="largest field size to sweep")
    p_ve.add_argument("--nmax", type=int, help="scan limit for the totient sweep")
    p_ve.add_argument("--per-field", type=int, default=1000, help="witness inputs per large field")
    p_ve.add_argument("--catalogue-path", metavar="FILE")
    p_ve.add_argument("--out", metavar="FILE")
    return parser


def _config_from_args(args) -> RunConfig:
    caps = DEFAULT_CAPS
    for field_name, arg_name in (
        ("point_cap", "point_cap"),
        ("group_cap", "group_cap"),
        ("exact_cap", "exact_cap"),
    ):
        value = getattr(args, arg_name, None)
        if value is not None:
            if value <= 0:
                raise ValueError("caps must be positive")
            caps = replace(caps, **{field_name: value})
    cfg = RunConfig(
        command=args.command,
        catalogue=getattr(args, "catalogue", None),
        catalogue_path=getattr(args, "catalogue_path", None),
        psl2=getattr(args, "psl2", None),
        q=getattr(args, "q", None),
        variant=getattr(args, "variant", "psl"),
        j=getattr(args, "j", 1),
        ksubsets=tuple(args.ksubsets) if getattr(args, "ksubsets", None) else None,
        alternating=getattr(args, "alternating", False),
        caps=caps,
        out=getattr(args, "out", None),
        fmt=getattr(args, "fmt", "dot"),
        with_classes=not getattr(args, "no_classes", False),
        with_star=not getattr(args, "no_star", False),
        clique_target=getattr(args, "clique_target", None),
        exact_search=getattr(args, "exact", False),
        sweep=getattr(args, "sweep", None),
        qmax=getattr(args, "qmax", None),
        nmax=getattr(args, "nmax", None),
        per_field=getattr(args, "per_field", 1000),
    )
    if cfg.per_field < 1:
        raise ValueError("--per-field must be at least 1, got %d" % cfg.per_field)
    if cfg.nmax is not None and cfg.nmax < 3:
        raise ValueError("--nmax must be at least 3, got %d" % cfg.nmax)
    if cfg.command in ("analyze", "graph"):
        specs = sum(x is not None for x in (cfg.catalogue, cfg.psl2, cfg.ksubsets))
        if specs != 1:
            raise ValueError("give exactly one of --catalogue, --psl2, --ksubsets")
        if cfg.psl2 is not None and cfg.q is None:
            raise ValueError("--psl2 needs --q")
    return cfg


def _load_entries(cfg: RunConfig):
    path = cfg.catalogue_path or bundled_catalogue_path()
    return load_catalogue(path, caps=cfg.caps)


def _entry_action(entry, caps: Caps) -> LabelledAction:
    """Coset action of a catalogue entry, or its natural action when the
    entry declares no subgroup."""
    if entry.subgroup is not None:
        return coset_action(entry.group, entry.subgroup, entry.name, caps=caps)
    labels = tuple(OmegaPoint("coset_index", i) for i in range(entry.group.degree))
    return LabelledAction(entry.group, labels, entry.name)


def build_action(cfg: RunConfig) -> LabelledAction:
    if cfg.catalogue is not None:
        entries = _load_entries(cfg)
        if cfg.catalogue not in entries:
            raise ValueError(
                "unknown catalogue entry %r (have: %s)"
                % (cfg.catalogue, ", ".join(sorted(entries)))
            )
        entry = entries[cfg.catalogue]
        return _entry_action(entry, cfg.caps)
    if cfg.psl2 is not None:
        variant = GroupVariant(VARIANT_NAMES[cfg.variant], cfg.q, cfg.j if cfg.variant == "dphi" else 0)
        ctor = psl2_c2_action if cfg.psl2 == "c2" else psl2_c3_action
        return ctor(variant, caps=cfg.caps)
    n, k = cfg.ksubsets
    return ksubset_action(n, k, even_only=cfg.alternating, caps=cfg.caps)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def cmd_analyze(cfg: RunConfig) -> int:
    action = build_action(cfg)
    report = build_report(
        action,
        with_classes=cfg.with_classes,
        with_star=cfg.with_star,
        clique_target=cfg.clique_target,
        exact_search=cfg.exact_search,
    )
    _emit(report.to_json(), cfg.out)
    return 0


def cmd_graph(cfg: RunConfig) -> int:
    action = build_action(cfg)
    for w in action.warnings:
        sys.stderr.write("warning: %s\n" % w)
    graph = saxl_graph(action)
    text = graph.to_dot() if cfg.fmt == "dot" else graph.to_edge_list()
    _emit(text, cfg.out)
    return 0


# -- verification sweeps -----------------------------------------------------------


def _check(name: str, ok: bool, detail: str) -> dict:
    return {"name": name, "ok": bool(ok), "detail": detail}


def _table_rows() -> dict:
    """The frozen (r, Q) rows of the bundled fixtures, by catalogue name."""
    return json.loads((Path(__file__).parent / "data" / "table_rows.json").read_text())


def _sweep_table_rows(cfg: RunConfig) -> list[dict]:
    expected = _table_rows()
    entries = _load_entries(cfg)
    checks = []
    for name in expected:
        want = expected[name]
        entry = entries[name]
        action = _entry_action(entry, cfg.caps)
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


def _edge_disagreements(graph, pred) -> int:
    """The pairs a < b on which the engine's graph and ``pred(a, b)`` disagree."""
    n = graph.n
    return sum(1 for a in range(n) for b in range(a + 1, n) if graph.has_edge(a, b) != pred(a, b))


def _sweep_c2_oracle(cfg: RunConfig) -> list[dict]:
    qmax = cfg.qmax or 27
    checks = []
    for q in (5, 7, 9, 11, 13, 17, 19, 23, 25, 27):
        if q > qmax:
            continue
        action = psl2_c2_action(GroupVariant("PSigmaL2", q), caps=cfg.caps)
        graph = saxl_graph(action)
        F = field_from_order(q)
        labs = [proj_pair_labels(F, lab.payload) for lab in action.labels]
        mismatches = _edge_disagreements(graph, lambda a, b: criteria.c2_pair_base(F, labs[a], labs[b]))
        n = action.degree
        checks.append(
            _check(
                "c2-oracle PSigmaL2 q=%d" % q,
                mismatches == 0,
                "%d pairs, %d mismatches" % (n * (n - 1) // 2, mismatches),
            )
        )
    return checks


def _sweep_c3_oracle(cfg: RunConfig) -> list[dict]:
    qmax = cfg.qmax or 25
    rows = []
    for q in (5, 7, 9, 11, 13, 17, 19, 23, 25, 27):
        if q > qmax:
            continue
        rows.append((q, "PSL2", "G0"))
        if split_prime_power(q)[1] >= 2:
            rows.append((q, "PSigmaL2", "PSigmaL"))
    checks = []
    for q, family, variant in rows:
        action = psl2_c3_action(GroupVariant(family, q), caps=cfg.caps)
        graph = saxl_graph(action)
        p, f = split_prime_power(q)
        F2 = field_create(p, 2 * f)
        xs = [None if lab.payload == ALPHA else F2.from_log(lab.payload) for lab in action.labels]

        def base(a, b):
            if xs[a] is None:
                return criteria.c3_base(F2, variant, xs[b])
            return criteria.c3_pair_base(F2, variant, xs[a], xs[b])

        mismatches = _edge_disagreements(graph, base)
        n = action.degree
        checks.append(
            _check(
                "c3-oracle %s q=%d" % (family, q),
                mismatches == 0,
                "%d pairs, %d mismatches" % (n * (n - 1) // 2, mismatches),
            )
        )
    return checks


def _sweep_johnson(cfg: RunConfig) -> list[dict]:
    checks = []
    for q in (4, 8, 9, 13):
        if cfg.qmax and q > cfg.qmax:
            continue
        action = psl2_c2_action(GroupVariant("PGL2", q), caps=cfg.caps)
        graph = saxl_graph(action)
        sets = [frozenset(lab.payload) for lab in action.labels]
        n = action.degree
        bad = _edge_disagreements(graph, lambda a, b: len(sets[a] & sets[b]) == 1)
        r = regular_suborbit_count(action)
        checks.append(
            _check(
                "johnson PGL2 q=%d" % q,
                n == q * (q + 1) // 2 and bad == 0 and r == 1,
                "%d edge disagreements, r=%d" % (bad, r),
            )
        )
    return checks


def _sweep_counts(cfg: RunConfig) -> list[dict]:
    checks = []
    for q in (9, 25, 49):
        if cfg.qmax and q > cfg.qmax:
            continue
        F = field_from_order(q)
        valency, r = criteria.c2_counts(F)
        action = psl2_c2_action(GroupVariant("PSigmaL2", q), caps=cfg.caps)
        graph = saxl_graph(action)
        r_brute = regular_suborbit_count(action)
        checks.append(
            _check(
                "c2-counts q=%d" % q,
                (valency, r) == (graph.valency, r_brute),
                "formula (%d, %d) brute (%d, %d)" % (valency, r, graph.valency, r_brute),
            )
        )
    for q in (11, 13, 17, 19):
        if cfg.qmax and q > cfg.qmax:
            continue
        action = psl2_c3_action(GroupVariant("PSL2", q), caps=cfg.caps)
        r_brute = regular_suborbit_count(action)
        r_formula = criteria.c3_regular_count_prime(q)
        checks.append(
            _check(
                "c3-regular-count q=%d" % q,
                r_formula == r_brute,
                "formula %d brute %d" % (r_formula, r_brute),
            )
        )
    if cfg.qmax and 13 > cfg.qmax:
        return checks
    F13 = field_from_order(13)
    m = count_nonsquare_nonsubfield(F13)
    action = psl2_c2_action(GroupVariant("PSL2", 13), caps=cfg.caps)
    graph = saxl_graph(action)
    predicted = m * 12 // 2 + 2 * 12
    checks.append(
        _check(
            "c2-meeting-edges q=13",
            predicted == graph.valency,
            "m(q-1)/2 + 2(q-1) = %d, brute valency %d" % (predicted, graph.valency),
        )
    )
    return checks


def _base_two_l_actions(cfg: RunConfig, qmax: int):
    """Every constructible pair/unitary action with q <= qmax that is
    primitive and base-two, in deterministic order."""
    out = []
    for q in (4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27):
        if q > qmax:
            continue
        p, f = split_prime_power(q)
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
                    action = ctor(GroupVariant(family, q, j), caps=cfg.caps)
                except ValueError:
                    continue
                if not action.group.is_primitive():
                    continue
                if regular_suborbit_count(action) < 1:
                    continue
                tag = "(j=%d)" % j if j else ""
                out.append(("%s %s q=%d%s" % (kind, family, q, tag), action))
    return out


def _sweep_star(cfg: RunConfig) -> list[dict]:
    qmax = cfg.qmax or 27
    checks = []
    for name, action in _base_two_l_actions(cfg, qmax):
        ok, witnesses = check_star(action)
        missing = sum(1 for w in witnesses.values() if w is None)
        checks.append(_check("star %s" % name, ok and bool(witnesses), "%d suborbit reps, %d without witness" % (len(witnesses), missing)))
    entries = _load_entries(cfg)
    for name in _table_rows():
        action = _entry_action(entries[name], cfg.caps)
        ok, witnesses = check_star(action)
        checks.append(_check("star fixture %s" % name, ok and bool(witnesses), "%d suborbit reps" % len(witnesses)))
    return checks


def _sweep_witnesses(cfg: RunConfig) -> list[dict]:
    checks = []
    # small fields: point 0 is alpha, and every valid input (there must be
    # some) has both witness edges checked against the engine
    for q in (9, 13):
        F = field_from_order(q)
        action = psl2_c2_action(GroupVariant("PSigmaL2", q), caps=cfg.caps)
        graph = saxl_graph(action)
        index = action.label_index
        count = 0
        alpha = proj_pair_payload((INF, F.zero()))
        ok = action.labels[0] == OmegaPoint("proj_pair", alpha)
        for b in F.nonzero_elements():
            for c in F.nonzero_elements():
                if b == c or not criteria.c2_base_psigma(F, b, c):
                    continue
                gamma, _ = criteria.c2_common_neighbour_witness(F, b, c)
                bi = index[OmegaPoint("proj_pair", proj_pair_payload((b, c)))]
                gi = index[OmegaPoint("proj_pair", proj_pair_payload(gamma))]
                ok &= graph.has_edge(0, gi) and graph.has_edge(bi, gi)
                count += 1
        checks.append(_check("c2-witness q=%d (engine-checked)" % q, ok and count > 0, "%d inputs" % count))
    for q in (9, 13):
        p, f = split_prime_power(q)
        F2 = field_create(p, 2 * f)
        family = "PSigmaL2" if f > 1 else "PSL2"
        action = psl2_c3_action(GroupVariant(family, q), caps=cfg.caps)
        graph = saxl_graph(action)
        index = action.label_index
        count = 0
        ok = action.labels[0] == OmegaPoint("c3_point", ALPHA)
        for L in c3_label_logs(F2, q):
            b = F2.from_log(L)
            if not criteria.c3_base(F2, "PSigmaL", b):
                continue
            c, _ = criteria.c3_common_neighbour_witness(F2, b)
            bi = index[OmegaPoint("c3_point", L)]
            ci = index[OmegaPoint("c3_point", c3_canonical_log(F2, q, c.log))]
            ok &= graph.has_edge(0, ci) and graph.has_edge(bi, ci)
            count += 1
        checks.append(_check("c3-witness q=%d (engine-checked)" % q, ok and count > 0, "%d inputs" % count))
    # large fields: the constructors verify their own identities arithmetically
    target = cfg.per_field
    for q in (49, 81):
        F = field_from_order(q)
        count = 0
        for b, c in criteria.c2_base_candidates(F):
            criteria.c2_common_neighbour_witness(F, b, c)
            count += 1
            if count >= target:
                break
        checks.append(_check("c2-witness q=%d (arithmetic)" % q, count >= target, "%d inputs" % count))
    for q in (49, 81):
        p, f = split_prime_power(q)
        F2 = field_create(p, 2 * f)
        half = (F2.q - 1) // 2
        count = 0
        for L in range(F2.q - 1):
            if L * (q + 1) % (F2.q - 1) == half:
                continue
            b = F2.from_log(L)
            if not criteria.c3_base(F2, "PSigmaL", b):
                continue
            criteria.c3_common_neighbour_witness(F2, b)
            count += 1
            if count >= target:
                break
        checks.append(_check("c3-witness q=%d (arithmetic)" % q, count >= target, "%d inputs" % count))
    return checks


def _sweep_euler(cfg: RunConfig) -> list[dict]:
    nmax = cfg.nmax or 10**6
    violations = euler_bound_scan(nmax)
    checks = [
        _check(
            "euler-lower-bound n<=%d" % nmax,
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
    fields = []
    for q in range(29, qmax + 1):
        try:
            p, f = split_prime_power(q)
        except ValueError:
            continue
        if p != 2 and f > 1:
            fields.append(q)
    return fields


def _alpha_clique_ok(verts, is_alpha, alpha_edge, pair_edge) -> bool:
    """Whether verts is a 5-clique with alpha first: each later vertex is
    alpha's neighbour, and every two of them are adjacent."""
    return (
        len(verts) == 5
        and is_alpha(verts[0])
        and all(alpha_edge(v) for v in verts[1:])
        and all(pair_edge(u, v) for u, v in combinations(verts[1:], 2))
    )


def _sweep_clique5(cfg: RunConfig) -> list[dict]:
    # the constructors check their own edges; all ten are checked again here
    checks = []
    for q in _clique5_fields(cfg.qmax or 200):
        p, f = split_prime_power(q)
        F, F2 = field_create(p, f), field_create(p, 2 * f)
        c2 = criteria.c2_clique5(F)
        c3 = criteria.c3_clique5(F2)
        ok = _alpha_clique_ok(
            c2,
            lambda v: v == ALPHA,
            lambda v: criteria.c2_base_psigma(F, v.b, v.c),
            lambda u, v: criteria.c2_pair_base(F, u.labels(), v.labels()),
        ) and _alpha_clique_ok(
            c3,
            lambda v: v.is_alpha(),
            lambda v: criteria.c3_base(F2, "PSigmaL", v.scalar()),
            lambda u, v: criteria.c3_pair_base(F2, "PSigmaL", u.scalar(), v.scalar()),
        )
        checks.append(_check("clique5 q=%d" % q, ok, "c2 %d vertices, c3 %d vertices" % (len(c2), len(c3))))
    return checks


def _c3_point(pt) -> OmegaPoint:
    """The action label of a :class:`criteria.C3Point`."""
    return OmegaPoint("c3_point", ALPHA if pt.is_alpha() else pt.log)


def _sweep_cliques(cfg: RunConfig) -> list[dict]:
    qmax = cfg.qmax or 49
    got = clique_and_independence_exact(ksubset_action(5, 2, even_only=True, caps=cfg.caps))
    checks = [_check("exact A5/2-subsets", got == (4, 2), "clique %d, independence %d (want 4, 2)" % got)]
    # socle cliques of size (q-1)/2 through alpha, every edge in the engine's graph
    for q in (9, 13, 25):
        if q > qmax:
            continue
        p, f = split_prime_power(q)
        F2 = field_create(p, 2 * f)
        anchor = next(b for b in map(F2.from_log, c3_label_logs(F2, q)) if not is_square(b))
        pts = criteria.c3_clique(F2, anchor)
        action = psl2_c3_action(GroupVariant("PSL2", q), caps=cfg.caps)
        graph = saxl_graph(action)
        idx = [action.label_index[_c3_point(pt)] for pt in pts]
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
    for q in _clique5_fields(qmax):
        p, f = split_prime_power(q)
        F, F2 = field_create(p, f), field_create(p, 2 * f)
        c2_act = psl2_c2_action(GroupVariant("PSigmaL2", q), caps=cfg.caps)
        c2_labels = [(INF, F.zero()) if v == ALPHA else v.labels() for v in criteria.c2_clique5(F)]
        c2_idx = [c2_act.label_index[OmegaPoint("proj_pair", proj_pair_payload(labs))] for labs in c2_labels]
        c3_act = psl2_c3_action(GroupVariant("PSigmaL2", q), caps=cfg.caps)
        c3_idx = [c3_act.label_index[_c3_point(pt)] for pt in criteria.c3_clique5(F2)]
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


def _sweep_closed_forms(cfg: RunConfig) -> list[dict]:
    rows = [(q, "PGL_Dq_minus_1", "PGL2", psl2_c2_action) for q in (8, 9, 11, 13, 16)]
    for q in (13, 17, 29):
        rows += [(q, "Dq_minus_1", "PSL2", psl2_c2_action), (q, "Dq_plus_1", "PSL2", psl2_c3_action)]
    checks = []
    for q, kind, family, ctor in rows:
        if cfg.qmax and q > cfg.qmax:
            continue
        form = criteria.remark_q_closed_forms(q, kind)
        got = q_exact(ctor(GroupVariant(family, q), caps=cfg.caps))
        checks.append(_check("closed-form %s q=%d" % (kind, q), got == form, "Q=%s, closed form %s" % (got, form)))
    return checks


def _sweep_estimates(cfg: RunConfig) -> list[dict]:
    entries = _load_entries(cfg)
    checks = []
    for name in _table_rows():
        action = _entry_action(entries[name], cfg.caps)
        lo, mid, hi = q_exact(action), q_hat(action), q_tilde(action)
        checks.append(_check("estimates %s" % name, lo <= mid <= hi, "Q=%s Q-hat=%s Q-tilde=%s" % (lo, mid, hi)))
    value = lemma_calc_bound(156, 135135, 2)
    checks.append(_check("lemma-bound A=156 B=135135 c=2", value < Fraction(1, 4), "%s < 1/4" % value))
    return checks


_SWEEP_FUNCS = {
    "table-rows": _sweep_table_rows,
    "c2-oracle": _sweep_c2_oracle,
    "c3-oracle": _sweep_c3_oracle,
    "johnson": _sweep_johnson,
    "counts": _sweep_counts,
    "star": _sweep_star,
    "witnesses": _sweep_witnesses,
    "euler": _sweep_euler,
    "clique5": _sweep_clique5,
    "closed-forms": _sweep_closed_forms,
    "cliques": _sweep_cliques,
    "estimates": _sweep_estimates,
}


def cmd_verify(cfg: RunConfig) -> int:
    if cfg.sweep not in _SWEEP_FUNCS:
        raise ValueError("unknown sweep %r (have: %s)" % (cfg.sweep, ", ".join(_SWEEP_FUNCS)))
    checks = _SWEEP_FUNCS[cfg.sweep](cfg)
    # a sweep that checked nothing (say, --qmax below its first field) proves nothing
    passed = bool(checks) and all(c["ok"] for c in checks)
    payload = {"schema": 1, "sweep": cfg.sweep, "ok": passed, "checks": checks}
    _emit(json.dumps(payload, indent=2) + "\n", cfg.out)
    return 0 if passed else 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        if cfg.command == "analyze":
            return cmd_analyze(cfg)
        if cfg.command == "graph":
            return cmd_graph(cfg)
        return cmd_verify(cfg)
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
