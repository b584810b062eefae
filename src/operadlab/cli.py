"""Command-line front end: verdicts, the results table, decompositions,
polarization, isomorphism checks and the randomized suites.  --q
specializes q (and v = sqrt q) in the presentations and in iso's --map,
which `presentation.parse_map` reads by the relation grammar's map rule.
iso tries --map star in both directions: either one that carries one
relation space onto the other is an isomorphism; when neither does and
a try fails, the error names each distinct fault once, in sorted order.

Exit codes: 0 success, 2 bad input (a presentation, map or --q value
that does not parse or does not fit) or a failed check, 3 internal
inconsistency between two decision methods.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction

from . import free3, rep, mlab, quantize
from .scalar import ScalarError
from .presentation import (Presentation, PresentationError, builtin,
                           parse_map, parse_presentation, polarize_presentation,
                           depolarize_presentation, BUILTIN_NAMES)
from .checkers import (check_cyclic, check_dihedral, hopf_analyze,
                       check_substitution_iso, InternalInconsistencyError,
                       CheckerError)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INCONSISTENT = 3
# the faults of the input, reported with EXIT_PARSE
_INPUT_ERRORS = (PresentationError, ScalarError, free3.Free3Error, CheckerError,
                 quantize.QuantizeError, mlab.MultiMapError)

# (operad, algebras, Koszulness quoted from the literature, never computed)
TABLE_ROWS = (
    ("Ass", "associative", "yes"),
    ("Poiss", "Poisson", "yes"),
    ("LLq", "LL_q (generic q)", "yes"),
    ("LLinf", "LL_infinity", "yes"),
    ("Vinberg", "Vinberg", "yes"),
    ("PreLie", "pre-Lie", "yes"),
    ("G4", "G4-associative", "no"),
    ("G5", "G5-associative", "no"),
    ("G6", "Lie-admissible", "yes"),
)


def _load_presentation(spec: str, q=None) -> Presentation:
    if spec in BUILTIN_NAMES or (spec.isidentifier() and not os.path.exists(spec)):
        p = builtin(spec)
    elif os.path.exists(spec):
        try:
            with open(spec, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as e:
            raise PresentationError(f"cannot read {spec}: {e}") from None
        p = parse_presentation(text)
    else:
        p = parse_presentation(spec)
    if q is not None:
        p = p.specialize(q)
    return p


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise PresentationError(f"--q expects a rational number, got {text!r}") from None


def _emit(args, payload: dict, text_lines) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_check(args) -> int:
    p = _load_presentation(args.presentation, args.q)
    wanted = ([f for f in ("cyclic", "dihedral", "hopf") if getattr(args, f)]
              or ["cyclic", "dihedral", "hopf"])
    payload = {"command": "check", "presentation": p.name}
    lines = [f"presentation {p.name} (dim R = {p.R.dim})"]
    if "cyclic" in wanted:
        payload["cyclic"] = check_cyclic(p)
        lines.append(f"  cyclic:   {'yes' if payload['cyclic'] else 'no'}")
    if "dihedral" in wanted:
        payload["dihedral"] = check_dihedral(p)
        lines.append(f"  dihedral: {'yes' if payload['dihedral'] else 'no'}")
    if "hopf" in wanted:
        h = hopf_analyze(p)
        payload["hopf"] = {"verdict": h.verdict, "witness": h.witness_str()}
        w = f" (B = {h.witness_str()})" if h.witness is not None else ""
        lines.append(f"  hopf:     {h.verdict}{w}")
        if h.diagnostic:
            lines.append(f"            {h.diagnostic}")
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_table(args) -> int:
    rows = []
    width = max(len(t) for _, t, _ in TABLE_ROWS)
    lines = [f"{'operad':<8} {'algebras':<{width}} "
             f"{'Koszul*':<8} {'cyclic':<7} {'dihedral':<9} hopf",
             "-" * (8 + width + 35)]
    for name, algebras, koszul in TABLE_ROWS:
        p = builtin(name)
        cyclic, dihedral, h = check_cyclic(p), check_dihedral(p), hopf_analyze(p)
        rows.append({
            "operad": name,
            "algebras": algebras,
            "koszul": {"value": koszul, "source": "cited, not computed"},
            "cyclic": cyclic,
            "dihedral": dihedral,
            "hopf": {"verdict": h.verdict, "witness": h.witness_str()},
        })
        hopf_col = {"unique": "yes", "all": "yes", "none": "no"}.get(
            h.verdict, h.verdict)
        if h.witness is not None:
            hopf_col += f" (B = {h.witness_str()})"
        lines.append(f"{name:<8} {algebras:<{width}} "
                     f"{koszul:<8} "
                     f"{'yes' if cyclic else 'no':<7} "
                     f"{'yes' if dihedral else 'no':<9} {hopf_col}")
    lines.append("* Koszul column cited from the literature, not computed.")
    payload = {"command": "table", "rows": rows,
               "koszul_note": "cited, not computed"}
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_decompose(args) -> int:
    p = _load_presentation(args.presentation, args.q)
    gp, gm = free3.gamma_plus_split(p.shape)
    dp = rep.decompose_subspace(gp)
    dm = rep.decompose_subspace(gm)
    payload = {
        "command": "decompose",
        "presentation": p.name,
        "gamma_plus": {"dim": gp.dim, "decomposition": rep.render_decomposition(dp)},
        "gamma_minus": {"dim": gm.dim, "decomposition": rep.render_decomposition(dm)},
    }
    lines = [f"presentation {p.name}: ambient dim {p.shape.basis_size}",
             f"  even part  ({gp.dim:2d}): {rep.render_decomposition(dp)}",
             f"  odd part   ({gm.dim:2d}): {rep.render_decomposition(dm)}"]
    if p.R.dim and check_cyclic(p):
        dr = rep.decompose_subspace(p.R)
        payload["relations"] = {"dim": p.R.dim,
                                "decomposition": rep.render_decomposition(dr)}
        lines.append(f"  relations  ({p.R.dim:2d}): {rep.render_decomposition(dr)}")
    else:
        payload["relations"] = {"dim": p.R.dim, "decomposition": None}
        if p.R.dim:
            lines.append(f"  relations  ({p.R.dim:2d}): not invariant under the "
                         "extended action; no character")
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_polarize(args) -> int:
    p = _load_presentation(args.presentation, args.q)
    pol = polarize_presentation(p)
    payload = {"command": "polarize", "presentation": p.name,
               "polarized": pol.render()}
    _emit(args, payload, [pol.render()])
    return EXIT_OK


NAMED_MAPS = ("star", "opposite", "identity", "signflip")


def _named_map(name: str, p: Presentation, p2: Presentation):
    """The named map from p's generators to p2's, written as --map text."""
    if name == "star":
        g, t = p.generators[0].name, p2.generators[0].name
        text = f"{g}=((1+v)/2)*{t}(x,y) + ((1-v)/2)*{t}(y,x)"
    elif name == "opposite":
        text = f"{p.generators[0].name}={p2.generators[0].name}(y,x)"
    elif name in ("identity", "signflip"):
        flip = {"anti": "-"} if name == "signflip" else {}
        text = "; ".join(f"{g.name}={flip.get(g.symmetry, '')}{g2.name}(x,y)"
                         for g, g2 in zip(p.generators, p2.generators))
    else:
        raise CheckerError(f"unknown named map {name!r}")
    return parse_map(text)


def cmd_iso(args) -> int:
    p = _load_presentation(args.p1, args.q)
    p2 = _load_presentation(args.p2, args.q)
    # star and opposite are defined on one no-symmetry generator; any other
    # map compares the presentations as given when their generators match
    if (args.map in ("star", "opposite") or [g.symmetry for g in p.generators]
            != [g.symmetry for g in p2.generators]):
        p, p2 = depolarize_presentation(p), depolarize_presentation(p2)
    # the star formula defines one product from the other: it is tried from
    # the second presentation's side, then from the first's; when neither
    # is an isomorphism, the faults of both are named, in a fixed order
    result, faults = False, set()
    for src, dst in ((p2, p), (p, p2)) if args.map == "star" else ((p, p2),):
        try:
            mapping = (_named_map(args.map, src, dst) if args.map in NAMED_MAPS
                       else parse_map(args.map))
            if args.q is not None:
                mapping = {g: e.specialize(args.q) for g, e in mapping.items()}
            result = check_substitution_iso(src, dst, mapping)
        except _INPUT_ERRORS as e:
            faults.add(str(e))
        if result:
            break
    if faults and not result:
        raise CheckerError("; ".join(sorted(faults)))
    payload = {"command": "iso", "source": p.name, "target": p2.name,
               "map": args.map, "isomorphic": result}
    _emit(args, payload, [f"{p.name} -> {p2.name} via {args.map!r}: "
                          f"{'isomorphism' if result else 'NOT an isomorphism'}"])
    return EXIT_OK


def cmd_quantize(args) -> int:
    s = quantize.moyal_star(args.order)
    commutative = s.commutative_mod_t(min(args.degree, 3))
    associative = s.is_associative(min(args.degree, 3))
    data = quantize.polarize_star(s)
    ok, failure = quantize.check_LL(data, degree=args.degree)
    star2 = quantize.star_from_LL(data, check=False)
    basis = quantize.basis_monomials(min(args.degree, 3))
    roundtrip = all(
        star2.rule(u, v).eq_mod(s.rule(u, v), args.order)
        for u in basis for v in basis)
    payload = {
        "command": "quantize", "example": "moyal",
        "order": args.order, "degree": args.degree,
        "commutative_mod_t": commutative,
        "associative": associative,
        "ll_axioms": ok,
        "first_failure": failure,
        "roundtrip": roundtrip,
    }
    lines = [f"standard-ordered star product, order {args.order}, "
             f"carrier degree <= {args.degree}",
             f"  commutative mod t: {'pass' if commutative else 'FAIL'}",
             f"  associative:       {'pass' if associative else 'FAIL'}",
             f"  compatibility axioms (parameter t^2): {'pass' if ok else 'FAIL'}",
             f"  roundtrip split/assemble: {'pass' if roundtrip else 'FAIL'}"]
    if failure:
        lines.append(f"  first failing triple: {failure}")
    if args.mutate:
        bad = data.mutate_bracket((1, 0), (0, 1), (0, 0, 0), 1)
        # the corrupted {x, p} coefficient first shows in carrier degree 1
        bad_ok, bad_fail = quantize.check_LL(bad, degree=min(max(args.degree, 1), 2))
        payload["mutated_ll_axioms"] = bad_ok
        payload["mutated_first_failure"] = bad_fail
        lines.append(f"  mutated bracket: {'still passes (BUG)' if bad_ok else 'fails as expected'}")
        if bad_fail:
            lines.append(f"    {bad_fail}")
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_mlab(args) -> int:
    if args.trials < 0:
        raise CheckerError(f"trial count {args.trials} is negative")
    rng = random.Random(args.seed)
    d = 2
    pre_lie = vinberg = master = g6_signed = 0
    for _ in range(args.trials):
        f = mlab.MultiMap.random(rng, d, rng.randint(1, 2), 1)
        g = mlab.MultiMap.random(rng, d, rng.randint(1, 2), 1)
        h = mlab.MultiMap.random(rng, d, rng.randint(1, 2), 1)
        A = mlab.circ_associator
        if A(f, g, h, compose=mlab.circ_plain) != A(f, h, g, compose=mlab.circ_plain):
            pre_lie += 1
        fc = mlab.MultiMap.random(rng, d, 1, rng.randint(1, 2))
        gc = mlab.MultiMap.random(rng, d, 1, rng.randint(1, 2))
        hc = mlab.MultiMap.random(rng, d, 1, rng.randint(1, 2))
        if A(fc, gc, hc, compose=mlab.circ_plain) != A(gc, fc, hc, compose=mlab.circ_plain):
            vinberg += 1
        mu = mlab.MultiMap.random(rng, d, 2, 1)
        de = mlab.MultiMap.random(rng, d, 1, 2)
        axioms_zero = all(t.is_zero()
                          for t in mlab.infinitesimal_bialgebra_axioms(mu, de))
        if mlab.master_residual_is_zero(mu, de) != axioms_zero:
            master += 1
        fx = mlab.MultiMap.random(rng, d, rng.randint(1, 2), rng.randint(1, 2))
        gx = mlab.MultiMap.random(rng, d, rng.randint(1, 2), rng.randint(1, 2))
        hx = mlab.MultiMap.random(rng, d, rng.randint(1, 2), rng.randint(1, 2))
        if not mlab.alternating_associator_sum(fx, gx, hx).is_zero():
            g6_signed += 1
    payload = {
        "command": "mlab", "seed": args.seed, "trials": args.trials,
        "pre_lie_failures": pre_lie,
        "vinberg_failures": vinberg,
        "master_equivalence_failures": master,
        "g6_alternation_nonzero": g6_signed,
        "note": "the alternating associator sum is nonzero on random mixed maps "
                "under the implemented insertion signs; no other convention is tried",
    }
    lines = [f"randomized composition suites (seed {args.seed}, "
             f"{args.trials} trials, d = {d})",
             f"  pre-Lie on single-output maps (plain sum): "
             f"{args.trials - pre_lie}/{args.trials} pass",
             f"  Vinberg on single-input maps (plain sum):  "
             f"{args.trials - vinberg}/{args.trials} pass",
             f"  master equation <=> axioms:                "
             f"{args.trials - master}/{args.trials} pass",
             f"  alternating associator sum on mixed maps:  nonzero in "
             f"{g6_signed}/{args.trials} trials (expected; not an identity)"]
    _emit(args, payload, lines)
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="operadlab",
        description="exact workbench for quadratic operads with one binary operation")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p, with_q=True):
        p.add_argument("--json", action="store_true", help="emit JSON")
        if with_q:
            p.add_argument("--q", default=None,
                           help="specialize the parameter q (and v = sqrt q) "
                                "to a rational, in iso also in the --map")

    c = sub.add_parser("check", help="cyclicity / dihedrality / Hopf verdicts")
    c.add_argument("presentation", help="builtin name, file, or literal text")
    c.add_argument("--cyclic", action="store_true")
    c.add_argument("--dihedral", action="store_true")
    c.add_argument("--hopf", action="store_true")
    common(c)
    c.set_defaults(fn=cmd_check)

    t = sub.add_parser("table", help="reproduce the results table")
    common(t, with_q=False)
    t.set_defaults(fn=cmd_table)

    d = sub.add_parser("decompose", help="S4 decompositions of the parity parts and R")
    d.add_argument("presentation", help="builtin name, file, or literal text")
    common(d)
    d.set_defaults(fn=cmd_decompose)

    pz = sub.add_parser("polarize", help="rewrite with comm/anti generator pairs")
    pz.add_argument("presentation")
    common(pz)
    pz.set_defaults(fn=cmd_polarize)

    iso = sub.add_parser("iso", help="generator-substitution isomorphism check")
    iso.add_argument("p1")
    iso.add_argument("p2")
    iso.add_argument("--map", required=True,
                     help="named map (star|opposite|identity|signflip) or "
                          "'gen=sum; ...' by the grammar's map rule, "
                          "map ::= [gen '=' sum] {';' [gen '=' sum]}; star is "
                          "tried from p2's side, then from p1's, and either "
                          "one proves an isomorphism")
    common(iso)
    iso.set_defaults(fn=cmd_iso)

    qz = sub.add_parser("quantize", help="star-product / bracket correspondence")
    qz.add_argument("--order", type=int, default=4)
    qz.add_argument("--degree", type=int, default=4)
    qz.add_argument("--mutate", action="store_true")
    common(qz, with_q=False)
    qz.set_defaults(fn=cmd_quantize)

    ml = sub.add_parser("mlab", help="randomized composition-algebra suites")
    ml.add_argument("--seed", type=int, default=0)
    ml.add_argument("--trials", type=int, default=20)
    common(ml, with_q=False)
    ml.set_defaults(fn=cmd_mlab)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if getattr(args, "q", None) is not None:
            args.q = _rational(args.q)
        return args.fn(args)
    except InternalInconsistencyError as e:
        print(f"internal inconsistency: {e}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except _INPUT_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
