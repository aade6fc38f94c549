"""Field points of the chamber toric variety as collections of ratios.

A point assigns to every pair of opposite roots {±a} a projective ratio
(t_a : t_{-a}) over Q, subject to the multiplicative identity
t_a t_b t_{-c} = t_{-a} t_{-b} t_c for every additive triple c = a + b.
These are in bijection with points of the variety; the bijection with affine
chart coordinates is implemented in both directions.

Ratios are stored keyed by the positive root of each pair (positivity taken
with respect to the base simple set); reading a pair in the opposite
orientation swaps the two components.  All identities are checked by
cross-multiplication, never by division.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import linalg, roots as rootsmod
from .errors import MissingPair, NoChartFound, internal_check


@dataclass(frozen=True)
class ProjectiveRatio:
    """A ratio (num : den), not both zero, in a canonical scaling.

    Canonical form: (0:1), (1:0), (1:x) with |x| <= 1; otherwise (x:1) with
    |x| < 1.  Equality of canonical forms is equality of ratios.

    The JSON form is the primitive integer pair ``[str(p), str(q)]``: p and q
    coprime with q > 0, or exactly ``["1", "0"]`` when q = 0.  Two ratios are
    equal exactly when their JSON forms are equal.  ``from_json`` accepts any
    non-zero scaling, fractions included.
    """

    num: Fraction
    den: Fraction

    @staticmethod
    def of(num, den):
        num, den = Fraction(num), Fraction(den)
        if num == 0 and den == 0:
            raise ValueError("(0 : 0) is not a projective ratio")
        if num == 0:
            return ProjectiveRatio(Fraction(0), Fraction(1))
        if den == 0:
            return ProjectiveRatio(Fraction(1), Fraction(0))
        if abs(num) >= abs(den):
            return ProjectiveRatio(Fraction(1), den / num)
        return ProjectiveRatio(num / den, Fraction(1))

    def swap(self):
        return ProjectiveRatio.of(self.den, self.num)

    @property
    def is_zero_one(self):
        return self.num == 0

    @property
    def is_one_zero(self):
        return self.den == 0

    @property
    def is_degenerate(self):
        return self.num == 0 or self.den == 0

    def to_json(self):
        """The primitive integer pair: (2:1) is ["2", "1"], (0:5) is ["0", "1"]."""
        if self.den == 0:
            return ["1", "0"]
        q = self.num / self.den
        return [str(q.numerator), str(q.denominator)]

    @staticmethod
    def from_json(pair):
        return ProjectiveRatio.of(Fraction(pair[0]), Fraction(pair[1]))


@dataclass(frozen=True)
class RData:
    """One ratio per opposite-root pair, keyed by the base-positive root."""

    ratios: tuple  # sorted tuple of (positive root index, ProjectiveRatio)

    @staticmethod
    def of(mapping):
        return RData(tuple(sorted(mapping.items())))

    def as_dict(self):
        return dict(self.ratios)


def ratio_for(r, d, root_index):
    """(t_a : t_{-a}) for an arbitrary root index a, respecting orientation."""
    table = d.as_dict()
    if root_index in table:
        return table[root_index]
    other = r.neg[root_index]
    if other in table:
        return table[other].swap()
    raise MissingPair(f"no ratio for the pair of {r.roots[root_index]}")


def _require_all_pairs(r, d):
    table = d.as_dict()
    for i in r.positive:
        if i not in table and r.neg[i] not in table:
            raise MissingPair(f"no ratio for the pair of {r.roots[i]}")


def validate_rdata(r, d):
    """List of additive triples (i, j, k) whose identity fails; empty = ok.

    For every triple root_k = root_i + root_j the cross-multiplied identity
    t_i t_j t_{-k} = t_{-i} t_{-j} t_k must hold exactly.
    """
    _require_all_pairs(r, d)
    cache = {}

    def tpair(i):
        if i not in cache:
            cache[i] = ratio_for(r, d, i)
        return cache[i]

    bad = []
    for (i, j, k) in rootsmod.additive_triples(r):
        ti, tj, tk = tpair(i), tpair(j), tpair(k)
        if ti.num * tj.num * tk.den != ti.den * tj.den * tk.num:
            bad.append((i, j, k))
    return bad


@dataclass(frozen=True)
class ChartPoint:
    """A point of the affine chart of a simple root set.

    ``chart`` is the sorted tuple of simple-root indices; ``coords`` holds
    the value of the character of each simple root, aligned with ``chart``.
    Zero values are allowed (the chart is an affine space).
    """

    chart: tuple
    coords: tuple

    def coord_of(self, root_index):
        return self.coords[self.chart.index(root_index)]


@lru_cache(maxsize=None)
def _chart_positive(r, s):
    """Indices of roots lying in the monoid generated by the chart ``s``."""
    exp = rootsmod.simple_set_expansions(r, s)
    return tuple(i for i, x in enumerate(exp)
                 if all(v >= 0 for v in x) and any(v > 0 for v in x))


def universal_rdata_at(r, p):
    """The tautological ratios over a chart point.

    For a pair with positive root a: if a is a nonnegative combination of the
    chart's simple roots, the ratio is (prod coords^exponents : 1); otherwise
    -a is, and the ratio is (1 : value of the character of -a).
    """
    s = tuple(p.chart)
    exp = rootsmod.simple_set_expansions(r, s)

    def character(coeffs):
        val = Fraction(1)
        for c, x in zip(coeffs, p.coords):
            if c:
                val *= Fraction(x) ** c
        return val

    out = {}
    for i in r.positive:
        coeffs = exp[i]
        if all(v >= 0 for v in coeffs):
            out[i] = ProjectiveRatio.of(character(coeffs), 1)
        else:
            out[i] = ProjectiveRatio.of(1, character(tuple(-v for v in coeffs)))
    return RData.of(out)


def rdata_to_point(r, d):
    """Invert the ratios to a chart point (the representability bijection).

    Scans the simple sets in canonical order and takes the first chart whose
    positive roots all have ratio different from (1:0); on that chart the
    coordinate of a simple root s is t_s / t_{-s}.  The reconstruction is
    checked to reproduce ``d`` exactly.
    """
    _require_all_pairs(r, d)
    for s in rootsmod.enumerate_simple_root_sets(r):
        if any(ratio_for(r, d, i).is_one_zero for i in _chart_positive(r, s)):
            continue
        coords = []
        for i in s:
            t = ratio_for(r, d, i)
            coords.append(Fraction(t.num, t.den) if t.num else Fraction(0))
        point = ChartPoint(chart=s, coords=tuple(coords))
        check = universal_rdata_at(r, point)
        internal_check(check == d, "chart reconstruction failed on validated data")
        return point
    raise NoChartFound("no admissible chart; the ratios violate the triple identities")


def verify_relation_generation(r):
    """Do the additive triples of positive roots generate all linear relations?

    Compares the lattice spanned by e_i + e_j - e_k (over positive triples
    root_k = root_i + root_j) with the kernel of the evaluation map
    Z^{R+} -> M(R).
    """
    pos = list(r.positive)
    pos_index = {i: t for t, i in enumerate(pos)}
    mu = tuple(r.mcoords[i] for i in pos)
    kern = linalg.kernel_basis(mu)
    gens = []
    for (i, j, k) in rootsmod.additive_triples(r):
        if i in pos_index and j in pos_index and k in pos_index:
            v = [0] * len(pos)
            v[pos_index[i]] += 1
            v[pos_index[j]] += 1
            v[pos_index[k]] -= 1
            gens.append(tuple(v))
    if not gens:
        return kern == ()
    return linalg.lattices_equal(tuple(gens), kern)


ZERO_ONE = "zero_one"
ONE_ZERO = "one_zero"
FREE = "free"


def orbit_rdata_pattern(r, v):
    """Degeneration pattern of the ratios over the orbit of a lattice point.

    For each pair (keyed by its positive root a): (0:1) when <a, v> > 0,
    (1:0) when <a, v> < 0, unconstrained when a is orthogonal to v.
    ``v`` is in the N(R)-coordinates dual to the base simple set.
    """
    out = {}
    for i in r.positive:
        s = rootsmod.pairing_with_ray(r, i, v)
        out[i] = ZERO_ONE if s > 0 else ONE_ZERO if s < 0 else FREE
    return out


def rdata_to_json(r, d):
    return {
        "pairs": [
            {"positive_root": list(r.roots[i]), "ratio": t.to_json()}
            for i, t in d.ratios
        ]
    }


def rdata_from_json(r, obj):
    out = {}
    for entry in obj["pairs"]:
        i = r.root_index(tuple(entry["positive_root"]))
        if i not in r.positive:
            i = r.neg[i]
            ratio = ProjectiveRatio.from_json(entry["ratio"]).swap()
        else:
            ratio = ProjectiveRatio.from_json(entry["ratio"])
        out[i] = ratio
    return RData.of(out)


def chart_point_to_json(r, p):
    return {
        "chart": [list(r.roots[i]) for i in p.chart],
        "coords": [str(x) for x in p.coords],
    }


def chart_point_from_json(r, obj):
    chart = tuple(r.root_index(tuple(v)) for v in obj["chart"])
    order = sorted(range(len(chart)), key=lambda t: chart[t])
    coords = [Fraction(x) for x in obj["coords"]]
    if len(chart) != r.rank or len(coords) != r.rank:
        raise ValueError(f"a chart point has {r.rank} simple roots and {r.rank} coordinates")
    return ChartPoint(chart=tuple(chart[t] for t in order),
                      coords=tuple(coords[t] for t in order))
