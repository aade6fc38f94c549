"""Stable pointed chains of projective lines over Q and their ratio data.

A marked chain is an ordered partition of the label set (which component
carries which mark, read from the s_- end) together with one projective
coordinate per mark on its component, in coordinates where the component's
poles are (1:0) and (0:1).  Marks may coincide but never sit on a pole.

The pairwise data of a chain assigns to each ordered label pair (i, j) the
ratio (t_ij : t_ji): the position of mark i in the coordinates that put mark
j at (1:1) when both lie on one component, (1:0) when i is on an earlier
component than j, and (0:1) when later.  Chains and data determine each
other exactly; the translation runs in both directions here, together with
contractions, the embedded-curve membership test, and the combinatorial
types over the torus orbits of the chamber fan.  ``CombType``,
``MarkedChain``, ``SectionInfo`` and ``UniversalCurve`` are NamedTuples:
immutable, and equal to any tuple with the same fields.
"""

from functools import lru_cache
from typing import NamedTuple

from . import linalg, rdata as rdatamod, roots as rootsmod
from .errors import EmptyKeep, MissingPair, NotPreorder, internal_check
from .rdata import ProjectiveRatio


class CombType(NamedTuple):
    """Ordered partition of the labels; first block carries s_-."""

    blocks: tuple  # tuple of sorted label tuples

    @staticmethod
    def of(blocks):
        blocks = tuple(tuple(sorted(b)) for b in blocks)
        if any(not b for b in blocks):
            raise ValueError("empty block in a combinatorial type")
        flat = [x for b in blocks for x in b]
        if len(set(flat)) != len(flat):
            raise ValueError("blocks are not disjoint")
        return CombType(blocks)

    @property
    def labels(self):
        return tuple(sorted(x for b in self.blocks for x in b))


class MarkedChain(NamedTuple):
    ctype: CombType
    coords: tuple  # sorted tuple of (label, ProjectiveRatio), entries nonzero

    @staticmethod
    def of(ctype, coords):
        coords = tuple(sorted((k, v) for k, v in dict(coords).items()))
        if tuple(k for k, _ in coords) != ctype.labels:
            raise ValueError("coordinates do not match the labels")
        for k, v in coords:
            if v.is_degenerate:
                raise ValueError(f"mark {k} sits on a pole or node")
        return MarkedChain(ctype, coords)

    @property
    def labels(self):
        return self.ctype.labels


def comb_type_from_data(data, labels):
    """Blocks of the total preorder defined by the degeneration pattern.

    i precedes j when t_ij = (1:0), follows when (0:1), and shares a
    component otherwise.  The rank of j is the number of marks preceding it.
    The pattern is a total preorder iff every pair compares the way its ranks
    do (NotPreorder otherwise); the blocks are the rank classes, in order.
    """
    labels = tuple(sorted(labels))
    pairs = [(i, j, data[(i, j)]) for a, i in enumerate(labels) for j in labels[a + 1:]]
    rank = dict.fromkeys(labels, 0)
    for i, j, t in pairs:
        rank[j] += t.is_one_zero
        rank[i] += t.is_zero_one
    for i, j, t in pairs:
        if (t.is_one_zero, t.is_zero_one) != (rank[i] < rank[j], rank[i] > rank[j]):
            raise NotPreorder(f"marks {i},{j} do not compare the way their ranks do")
    return CombType.of([[j for j in labels if rank[j] == k] for k in sorted(set(rank.values()))])


def chain_from_data(data, labels):
    """Build a chain realizing the data: per block, the minimal label is
    anchored at (1:1) and every other mark sits at its ratio against it."""
    ctype = comb_type_from_data(data, labels)
    coords = {}
    for b in ctype.blocks:
        anchor = b[0]
        coords[anchor] = ProjectiveRatio.of(1, 1)
        for i in b[1:]:
            coords[i] = data[(anchor, i)].swap()
    chain = MarkedChain.of(ctype, coords)
    internal_check(data_from_chain(chain) == dict(data), "chain does not reproduce its data")
    return chain


def data_from_chain(chain):
    """Extract the pairwise ratios of a chain, keyed by i < j."""
    block = {i: k for k, b in enumerate(chain.ctype.blocks) for i in b}
    coords = dict(chain.coords)
    out = {}
    labels = chain.labels
    for a, i in enumerate(labels):
        for j in labels[a + 1:]:
            if block[i] < block[j]:
                out[(i, j)] = ProjectiveRatio.of(1, 0)
            elif block[i] > block[j]:
                out[(i, j)] = ProjectiveRatio.of(0, 1)
            else:
                pi, pj = coords[i], coords[j]
                out[(i, j)] = ProjectiveRatio.of(pi.num * pj.den, pi.den * pj.num)
    return out


def chains_isomorphic(c1, c2):
    """Equal types, and equal marks once ``contract`` onto all labels has
    rescaled each component to put its minimal mark at (1:1)."""
    return contract(c1, c1.labels) == contract(c2, c2.labels)


def contract(chain, keep):
    """Forget the marks outside ``keep`` and collapse unstable components.

    Kept components keep their relative positions (renormalized to the new
    anchors); the operation is functorial under nested keeps.
    """
    keep = set(keep)
    if not keep:
        raise EmptyKeep("cannot contract away every mark")
    if not keep <= set(chain.labels):
        raise ValueError("keep contains unknown labels")
    cd = dict(chain.coords)
    blocks = []
    coords = {}
    for b in chain.ctype.blocks:
        kept = [i for i in b if i in keep]
        if not kept:
            continue
        blocks.append(kept)
        anchor = cd[kept[0]]
        for i in kept:
            p = cd[i]
            coords[i] = ProjectiveRatio.of(p.num * anchor.den, p.den * anchor.num)
    return MarkedChain.of(CombType.of(blocks), coords)


def curve_membership(data, labels, zs):
    """Membership of a point in the embedded chain cut out by the data.

    ``zs`` maps each label i to the slot-i ratio (z at the minus pole : z at
    the plus pole).  Returns (ok, components): ok iff every cross-multiplied
    binomial equation holds, and components lists the chain components
    containing the point (two at a node).
    """
    labels = tuple(sorted(labels))
    for a, i in enumerate(labels):
        for j in labels[a + 1:]:
            t = data[(i, j)]
            zi, zj = zs[i], zs[j]
            if t.num * zj.den * zi.num != t.den * zj.num * zi.den:
                return False, ()
    blocks = comb_type_from_data(data, labels).blocks
    comps = tuple(k for k in range(len(blocks))
                  if all(zs[i].is_zero_one for b in blocks[:k] for i in b)
                  and all(zs[i].is_one_zero for b in blocks[k + 1:] for i in b))
    internal_check(comps, "point satisfies the equations but lies on no component")
    return True, comps


# -- the universal chain over the chamber variety ---------------------------

class SectionInfo(NamedTuple):
    label: int
    kernel_root: tuple   # ambient vector of u_label - u_{n+2}
    lattice_map: tuple   # section's map on base coordinates


class UniversalCurve(NamedTuple):
    n: int
    morphism: object          # FanMorphism of the chamber fans
    sections: tuple
    pole_minus_ray: int       # ray index of -v_{n+2} in the source fan
    pole_plus_ray: int        # ray index of v_{n+2}
    fiber_counts: dict        # target max cone -> number of source chambers


def _check_marks(n):
    if n < 0:
        raise ValueError(f"a chain needs n >= 0, got n = {n}")


def _u_diff(i, j, dim):
    """The ambient vector u_i - u_j of length dim."""
    v = [0] * dim
    v[i - 1], v[j - 1] = 1, -1
    return tuple(v)


def universal_curve_structure(n):
    """The chain-of-lines family over the type-A chamber variety, at the
    level of fans: the projection, one section per label, and the two pole
    divisors.  n + 1 marks live on the chains, so n < 0 is refused before
    the A_{n+1} root system is built."""
    from . import fans
    _check_marks(n)
    big = rootsmod.build_root_system(rootsmod.RootSystemSpec.parse([("A", n + 1)]))
    dim = n + 2
    sub_roots = [v for v in big.roots if v[-1] == 0]
    base = [_u_diff(t, t + 1, dim) for t in range(1, dim - 1)]
    small = rootsmod.root_system_from_roots(sub_roots, dim, base=base)
    morphism = fans._morphism_from_lattice_inclusion(big, small)

    # rows: small base in big base coordinates
    proj = linalg.transpose(morphism.lattice_map)
    sections = []
    for label in range(1, n + 2):
        # ambient: u_t -> u_t for t <= n+1, u_{n+2} -> u_label, so coordinate
        # n+2 moves onto the label and each simple root goes to a root or 0
        lat = rootsmod.mcoords_of_vectors(small, [
            tuple(x + v[-1] * (t == label - 1) for t, x in enumerate(v[:-1])) + (0,)
            for v in (big.roots[i] for i in big.base_simple_set)])
        sections.append(SectionInfo(label, _u_diff(label, dim, dim), lat))
        # composition: include then project must be the identity
        internal_check(linalg.matmul(proj, lat) == linalg.identity_matrix(n),
                       "section does not split the projection")

    src = morphism.source
    v_last = tuple([0] * n + [-1])
    pole_plus = src.ray_index(v_last)
    pole_minus = src.ray_index(linalg.vec_neg(v_last))
    counts = {}
    for _, dst in morphism.cone_image:
        counts[dst] = counts.get(dst, 0) + 1
    return UniversalCurve(
        n=n,
        morphism=morphism,
        sections=tuple(sections),
        pole_minus_ray=pole_minus,
        pole_plus_ray=pole_plus,
        fiber_counts=counts,
    )


def comb_type_over_cone(n, chain_masks):
    """Combinatorial type of the fibers over the orbit of a fan cone.

    The cone is a nested chain of subsets; the type reads off the common
    refinement: complement of the largest set first, then the successive
    differences down to the smallest set.
    """
    from . import typea
    chain = tuple(chain_masks)
    if not typea.is_chain(chain) or any(
            not 0 < a < typea.full_mask(n) for a in chain):
        raise ValueError("not a nested chain of proper nonempty subsets")
    return CombType.of([typea.members(b) for b in reversed(typea.partition_blocks(chain, n))])


@lru_cache(maxsize=None)
def _an_system(n):
    """A_n, and the index of its root u_i - u_j for each pair i < j; the
    base simple roots are u_t - u_{t+1}, so these are the positive roots."""
    if n < 1:
        raise ValueError("ratio data need at least two marks")
    r = rootsmod.build_root_system(rootsmod.RootSystemSpec.parse([("A", n)]))
    index = {v: i for i, v in enumerate(r.roots)}
    pair_root = {(i, j): index[_u_diff(i, j, n + 1)]
                 for i in range(1, n + 2) for j in range(i + 1, n + 2)}
    internal_check(sorted(pair_root.values()) == sorted(r.positive),
                   "the roots u_i - u_j, i < j, are not the positive roots")
    return r, pair_root


def an_data_from_rdata(n, d):
    """Ratio dict keyed by (i, j), i < j, from the generic pair data."""
    table = d.as_dict()
    return {ij: table[k] for ij, k in _an_system(n)[1].items() if k in table}


def rdata_from_an_data(n, data):
    pair_root = _an_system(n)[1]
    return rdatamod.RData.of({pair_root[ij]: t for ij, t in data.items()})


def validate_an_data(n, data):
    """Violated additive triples of the ratio dict (empty list = valid)."""
    return rdatamod.validate_rdata(_an_system(n)[0], rdata_from_an_data(n, data))


def random_marked_chain(n, rng):
    """A seeded random stable chain with n+1 marks; marks may coincide."""
    _check_marks(n)
    labels = list(range(1, n + 2))
    rng.shuffle(labels)
    blocks = []
    cur = [labels[0]]
    for x in labels[1:]:
        if rng.random() < 0.4:
            blocks.append(cur)
            cur = [x]
        else:
            cur.append(x)
    blocks.append(cur)
    coords = {}
    for b in blocks:
        for i in b:
            num = rng.choice([x for x in range(-7, 8) if x])
            den = rng.randrange(1, 8)
            coords[i] = ProjectiveRatio.of(num, den)
    return MarkedChain.of(CombType.of(blocks), coords)


# -- JSON -------------------------------------------------------------------

def chain_to_json(chain):
    return {
        "n": len(chain.labels) - 1,
        "blocks": [list(b) for b in chain.ctype.blocks],
        "coords": [{"i": k, "pos": v.to_json()} for k, v in chain.coords],
    }


def chain_from_json(obj):
    labels = [i for b in obj["blocks"] for i in b] + [e["i"] for e in obj["coords"]]
    if not all(type(i) is int for i in labels):
        raise ValueError(f"chain labels must be integers: {labels}")
    ctype = CombType.of([tuple(b) for b in obj["blocks"]])
    coords = {}
    for e in obj["coords"]:
        if e["i"] in coords:
            raise ValueError(f"mark {e['i']} is given twice")
        coords[e["i"]] = ProjectiveRatio.from_json(e["pos"])
    return MarkedChain.of(ctype, coords)


def an_data_to_json(n, data):
    return rdatamod.rdata_to_json(_an_system(n)[0], rdata_from_an_data(n, data))


def an_data_from_json(n, obj):
    """Fewer than n(n+1)/2 pairs are refused before A_n is built, naming the
    first missing u_i - u_j in root order: i descending, then j ascending."""
    pairs = obj["pairs"]
    if len(pairs) < n * (n + 1) // 2:
        given = {tuple(e["positive_root"]) for e in pairs}
        missing = next(v for i in range(n, 0, -1) for j in range(i + 1, n + 2)
                       if not given & {v := _u_diff(i, j, n + 1), linalg.vec_neg(v)})
        raise MissingPair(f"no ratio for the pair of {missing}")
    return an_data_from_rdata(n, rdatamod.rdata_from_json(_an_system(n)[0], obj))
