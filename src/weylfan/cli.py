"""Batch command-line frontend: every library operation behind a JSON verb.

Output is a single JSON document on stdout (or --output FILE), with fixed
key order and canonically sorted arrays, so identical flags and seed give
byte-identical results.  Domain errors exit 1 with {"error", "detail"};
usage errors exit 2.

Each verb imports only the layers it runs, inside its ``cmd_*`` function, so
a usage error loads nothing of the package but this module and ``errors``.

A projective ratio (t_a : t_{-a}) is written as its primitive integer pair
["p", "q"]: p and q coprime with q > 0, or exactly ["1", "0"].  So (2:1) is
["2", "1"], (1/2 : 1) is ["1", "2"] and (0:5) is ["0", "1"].  Ratios read
from input may use any non-zero scaling, fractions included: ["4", "2"] and
["1", "1/2"] both mean (2:1).
"""

import argparse
import json
import sys

from .errors import WeylFanError


def _system_from_args(args):
    from . import roots as rootsmod
    if args.factors:
        if args.type or args.rank is not None:
            raise ValueError("--factors excludes --type and --rank")
        spec = _payload(args, "--factors", rootsmod.RootSystemSpec.parse)
    elif args.type:
        rank = args.rank
        if rank is None and args.type.upper() == "G":
            rank = 2  # G_2 is the only G
        if rank is None:
            raise ValueError("--rank is required with --type")
        spec = rootsmod.RootSystemSpec.parse([(args.type, rank)])
    else:
        raise ValueError("specify a root system with --type/--rank or --factors")
    return rootsmod.build_root_system(spec)


def _required(args, flag):
    """The value of an optional ``flag`` that this action needs."""
    value = getattr(args, flag[2:].replace("-", "_"))
    if value is None:
        raise ValueError(f"{flag} is required")
    return value


def _payload(args, flag, parse):
    """``parse`` applied to the JSON value of ``flag``.

    A value of the wrong JSON type or shape is invalid input, like a missing
    one: the TypeError, IndexError or ZeroDivisionError it causes while being
    read becomes a ValueError naming the flag.
    """
    try:
        return parse(json.loads(_required(args, flag)))
    except (TypeError, IndexError, ZeroDivisionError) as e:
        raise ValueError(f"{flag} has the wrong shape: {e}") from None


def _int_vectors(obj, dim):
    """A JSON list of integer vectors of length ``dim``, as tuples."""
    vectors = [tuple(v) for v in obj]
    if any(len(v) != dim or not all(type(x) is int for x in v) for v in vectors):
        raise TypeError(f"expected a list of integer vectors of length {dim}")
    return vectors


def _add_system_flags(p):
    p.add_argument("--type", help="family letter A|B|C|D|G")
    p.add_argument("--rank", type=int, help="rank of the single factor")
    p.add_argument("--factors", help='JSON list like [{"family":"A","rank":2}]')


def _roots_json(r, indices):
    return [list(r.roots[i]) for i in indices]


def cmd_fan(args):
    from . import fans
    r = _system_from_args(args)
    return fans.fan_to_json(fans.weyl_chamber_fan(r))


def cmd_morphism(args):
    from . import fans, roots as rootsmod
    r = _system_from_args(args)
    if args.embed_products:
        pos = [r.roots[i] for i in r.positive]
        factors = [("A", 1)] * len(pos)
        rp = rootsmod.build_root_system(rootsmod.RootSystemSpec.parse(factors))
        mu = tuple(v for root in pos for v in (tuple(root), (0,) * r.ambient_dim))
        eq = fans.projection_embedding_equations(r, rp, mu)
        return {
            "kernel": [list(v) for v in eq.kernel_mcoords],
            "positive_roots": [list(v) for v in pos],
            "charts": [
                {
                    "simple_set": _roots_json(rp, s),
                    "equations": [
                        {"positive": _roots_json(rp, p), "negative": _roots_json(rp, q)}
                        for p, q in eqs
                    ],
                }
                for s, eqs in eq.per_chart
            ],
        }
    if not args.sub_roots:
        raise ValueError("morphism needs --sub-roots or --embed-products")
    span = _payload(args, "--sub-roots", lambda obj: _int_vectors(obj, r.ambient_dim))
    rp, mor = fans.subsystem_morphism(r, span)
    return {
        "subsystem": rootsmod.root_system_to_json(rp),
        "lattice_map": [list(row) for row in mor.lattice_map],
        "source_fan": fans.fan_to_json(mor.source),
        "target_fan": fans.fan_to_json(mor.target),
        "cone_image": [
            {"source": list(src), "target": list(dst)} for src, dst in mor.cone_image
        ],
    }


def cmd_orbit(args):
    from . import fans
    r = _system_from_args(args)
    f = fans.weyl_chamber_fan(r)
    rays = _payload(args, "--cone", lambda obj: _int_vectors(obj, r.rank))
    tau = tuple(sorted({f.ray_index(v) for v in rays}))
    orb = fans.orbit_closure(r, f, tau)
    sec = fans.opposite_sections(r, tau)
    return {
        "subsystem_roots": _roots_json(r, orb.subsystem_root_indices),
        "factors": [_roots_json(r, comp) for comp in orb.factors],
        "charts": [
            {
                "simple_set": _roots_json(r, s),
                "restricted": _roots_json(r, sp),
                "vanishing": _roots_json(r, van),
            }
            for s, sp, van in orb.charts
        ],
        "opposite": {
            "plus_cone": [list(f.rays[i]) for i in sec.plus_cone],
            "minus_cone": [list(f.rays[i]) for i in sec.minus_cone],
            "plus_vanishing": _roots_json(r, sec.plus_vanishing),
            "minus_vanishing": _roots_json(r, sec.minus_vanishing),
        },
    }


def cmd_rdata(args):
    from . import rdata as rdatamod
    r = _system_from_args(args)
    if args.action in ("validate", "to-point"):
        d = _payload(args, "--data-json", lambda obj: rdatamod.rdata_from_json(r, obj))
        bad = rdatamod.validate_rdata(r, d)
        if args.action == "validate":
            return {"ok": not bad,
                    "violations": [[list(r.roots[x]) for x in triple] for triple in bad]}
        if bad:
            raise WeylFanError(f"{len(bad)} violated triple identities")
        return rdatamod.chart_point_to_json(r, rdatamod.rdata_to_point(r, d))
    if args.action == "universal-at":
        p = _payload(args, "--point-json", lambda obj: rdatamod.chart_point_from_json(r, obj))
        return rdatamod.rdata_to_json(r, rdatamod.universal_rdata_at(r, p))
    if args.action == "verify-gen":
        return {"ok": rdatamod.verify_relation_generation(r)}
    raise ValueError(f"unknown rdata action {args.action!r}")


def cmd_betti(args):
    from . import typea
    return list(typea.betti_numbers(args.n))


def cmd_basis(args):
    from . import typea
    return {
        "n": args.n,
        "monomials": [
            [list(typea.members(a)) for a in chain]
            for chain in sorted(typea.descent_basis(args.n))
        ],
    }


def cmd_reduce(args):
    from . import typea
    terms, n = _payload(args, "--class-json", typea.cohom_class_from_json)
    if args.times_json:
        other, n2 = _payload(args, "--times-json", typea.cohom_class_from_json)
        if n2 != n:
            raise ValueError("the two classes live in different rings")
        prod = {}
        for c1, v1 in terms.items():
            for c2, v2 in other.items():
                for c3, v3 in typea.multiply(c1, c2, n).items():
                    prod[c3] = prod.get(c3, 0) + v1 * v2 * v3
        terms = {c: v for c, v in prod.items() if v}
        return typea.cohom_class_to_json(terms, n)
    return typea.cohom_class_to_json(typea.reduce_to_basis(terms, n), n)


def cmd_primcol(args):
    from . import typea
    return {
        "n": args.n,
        "collections": [
            {
                "pair": [list(typea.members(rec.pair[0])), list(typea.members(rec.pair[1]))],
                "kind": rec.kind,
                "rhs": [list(typea.members(m)) for m in rec.rhs],
            }
            for rec in typea.primitive_collections(args.n)
        ],
    }


def cmd_nef(args):
    from . import typea
    coeffs = _payload(args, "--divisor-json", lambda obj: typea.divisor_from_json(obj, args.n))
    return {
        "nef": typea.is_nef(coeffs, args.n),
        "wall_convex": typea.nef_oracle(coeffs, args.n),
    }


def cmd_ample(args):
    from . import typea
    coeffs = _payload(args, "--divisor-json", lambda obj: typea.divisor_from_json(obj, args.n))
    return {"ample": typea.is_ample(coeffs, args.n)}


def cmd_polytope(args):
    from . import typea
    info = typea.delta_polytope(args.n)
    return {
        "n": info.n,
        "vertices": [list(v) for v in info.vertices],
        "lattice_points": [list(v) for v in info.lattice_points],
        "interior_points": [list(v) for v in info.interior_points],
        "is_reflexive": info.is_reflexive,
        "polar_vertices": [list(v) for v in info.polar_vertices],
    }


def cmd_sigma_delta(args):
    from . import fans, typea
    return fans.fan_to_json(typea.sigma_delta_fan(args.n))


def cmd_crepant(args):
    from . import fans, typea
    return fans.fan_to_json(typea.crepant_subdivision(args.n))


def _data_arg(args):
    from . import chains
    def parse(obj):
        if not obj["pairs"]:
            raise ValueError("--data-json has no pairs; the rank is read from the first root")
        n = len(obj["pairs"][0]["positive_root"]) - 1
        return n, chains.an_data_from_json(n, obj)
    return _payload(args, "--data-json", parse)


def cmd_lm(args):
    """Pointed chains of lines; ``orbit-type`` prints only {"blocks": [...]},
    the comb type over the cone ``--cone`` of the chain fan for ``--n``."""
    from . import chains
    if args.action == "type":
        n, data = _data_arg(args)
        t = chains.comb_type_from_data(data, tuple(range(1, n + 2)))
        return {"blocks": [list(b) for b in t.blocks]}
    if args.action == "from-data":
        n, data = _data_arg(args)
        return chains.chain_to_json(chains.chain_from_data(data, tuple(range(1, n + 2))))
    if args.action == "extract":
        c = _payload(args, "--chain-json", chains.chain_from_json)
        n = len(c.labels) - 1
        if c.labels != tuple(range(1, n + 2)):
            raise ValueError("lm extract needs a --chain-json labelled 1..n+1")
        return chains.an_data_to_json(n, chains.data_from_chain(c))
    if args.action == "contract":
        c = _payload(args, "--chain-json", chains.chain_from_json)
        keep = {int(x) for x in _required(args, "--keep").split(",")}
        return chains.chain_to_json(chains.contract(c, keep))
    if args.action == "membership":
        n, data = _data_arg(args)
        labels = tuple(range(1, n + 2))
        point = _payload(args, "--point-json",
                         lambda obj: [chains.ProjectiveRatio.from_json(z) for z in obj])
        if len(point) != len(labels):
            raise ValueError(f"--point-json needs {len(labels)} ratios, one per label")
        ok, comps = chains.curve_membership(data, labels, dict(zip(labels, point)))
        return {"ok": ok, "components": list(comps)}
    if args.action == "universal":
        from . import fans
        uc = chains.universal_curve_structure(_required(args, "--n"))
        return {
            "n": uc.n,
            "lattice_map": [list(row) for row in uc.morphism.lattice_map],
            "source_fan": fans.fan_to_json(uc.morphism.source),
            "target_fan": fans.fan_to_json(uc.morphism.target),
            "sections": [
                {
                    "label": sec.label,
                    "kernel_root": list(sec.kernel_root),
                    "lattice_map": [list(row) for row in sec.lattice_map],
                }
                for sec in uc.sections
            ],
            "pole_minus_ray": uc.pole_minus_ray,
            "pole_plus_ray": uc.pole_plus_ray,
            "fiber_counts": [
                {"cone": list(cone), "count": cnt}
                for cone, cnt in sorted(uc.fiber_counts.items())
            ],
        }
    if args.action == "orbit-type":
        from . import typea
        n = _required(args, "--n")
        chain = _payload(args, "--cone", lambda obj: tuple(typea.checked_mask(p, n) for p in obj))
        t = chains.comb_type_over_cone(n, chain)
        return {"blocks": [list(b) for b in t.blocks]}
    if args.action == "roundtrip":
        import random
        n = _required(args, "--n")
        if args.samples < 0:
            raise ValueError("--samples must be >= 0")
        rng = random.Random(args.seed)
        for _ in range(args.samples):
            c = chains.random_marked_chain(n, rng)
            data = chains.data_from_chain(c)
            if chains.validate_an_data(n, data):
                return {"ok": False, "samples": args.samples}
            c2 = chains.chain_from_data(data, c.labels)
            if chains.data_from_chain(c2) != data or not chains.chains_isomorphic(c, c2):
                return {"ok": False, "samples": args.samples}
        return {"ok": True, "samples": args.samples}
    raise ValueError(f"unknown lm action {args.action!r}")


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="seed for randomized verbs")
    common.add_argument("--output", help="write the JSON result to a file")

    top = argparse.ArgumentParser(prog="weylfan")
    sub = top.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("fan", parents=[common], help="fan of Weyl chambers")
    _add_system_flags(p)
    p.set_defaults(func=cmd_fan)

    p = sub.add_parser("morphism", parents=[common],
                       help="induced fan morphisms and embeddings")
    _add_system_flags(p)
    p.add_argument("--sub-roots", help="JSON list of ambient vectors spanning a subspace")
    p.add_argument("--embed-products", action="store_true",
                   help="equations of the embedding into the product of lines")
    p.set_defaults(func=cmd_morphism)

    p = sub.add_parser("orbit", parents=[common], help="torus orbit closure of a cone")
    _add_system_flags(p)
    p.add_argument("--cone", required=True, help="JSON list of ray vectors")
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("rdata", parents=[common], help="ratio data: the functor of points")
    p.add_argument("action", choices=["validate", "to-point", "universal-at", "verify-gen"])
    _add_system_flags(p)
    p.add_argument("--data-json")
    p.add_argument("--point-json")
    p.set_defaults(func=cmd_rdata)

    for name, func in [
        ("betti", cmd_betti),
        ("basis", cmd_basis),
        ("primcol", cmd_primcol),
        ("polytope", cmd_polytope),
        ("sigma-delta", cmd_sigma_delta),
        ("crepant", cmd_crepant),
    ]:
        p = sub.add_parser(name, parents=[common])
        p.add_argument("--n", type=int, required=True)
        p.set_defaults(func=func)

    p = sub.add_parser("reduce", parents=[common],
                       help="rewrite a class into the descent basis")
    p.add_argument("--class-json", required=True)
    p.add_argument("--times-json",
                   help="a second class in the same ring; prints the product "
                        "of the two in the descent basis instead")
    p.set_defaults(func=cmd_reduce)

    for name, func in [("nef", cmd_nef), ("ample", cmd_ample)]:
        p = sub.add_parser(name, parents=[common])
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--divisor-json", required=True)
        p.set_defaults(func=func)

    p = sub.add_parser("lm", parents=[common], help="pointed chains of lines")
    p.add_argument("action", choices=["type", "from-data", "extract", "contract",
                                      "membership", "universal", "orbit-type", "roundtrip"])
    p.add_argument("--n", type=int)
    p.add_argument("--data-json")
    p.add_argument("--chain-json")
    p.add_argument("--point-json")
    p.add_argument("--keep", help="comma-separated labels to keep")
    p.add_argument("--cone", help="JSON chain of subsets, e.g. [[1],[1,2]]")
    p.add_argument("--samples", type=int, default=100)
    p.set_defaults(func=cmd_lm)

    return top


def run(argv):
    """Execute one command; returns the exit code (stdout carries the JSON)."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    try:
        payload, code = args.func(args), 0
    except WeylFanError as e:
        payload, code = {"error": e.code, "detail": str(e)}, 1
    except (ValueError, KeyError, json.JSONDecodeError) as e:
        payload, code = {"error": "InvalidInput", "detail": str(e)}, 1
    try:
        _emit(payload, args.output)
    except OSError as e:
        _emit({"error": "InvalidInput", "detail": f"cannot write --output: {e}"}, None)
        return 1
    return code


def _emit(payload, output):
    text = json.dumps(payload, indent=2) + "\n"
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
