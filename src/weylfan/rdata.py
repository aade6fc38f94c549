"""Field points of the chamber toric variety as collections of ratios.

A point assigns to every pair of opposite roots {±a} a projective ratio
(t_a : t_{-a}) over Q, subject to the multiplicative identity
t_a t_b t_{-c} = t_{-a} t_{-b} t_c for every additive triple c = a + b.
These are in bijection with points of the variety; the bijection with affine
chart coordinates is implemented in both directions.  From ratios to a point,
the chart is found by descent from the base chamber (``roots.descend``), not
by a scan of the chambers.

Ratios are stored keyed by the positive root of each pair (positivity taken
with respect to the base simple set), and read by ``ratio_lists``: two lists
indexed by root that hold each pair in both orientations, the opposite one
swapped.  A ratio is a primitive integer pair, so every identity is checked
by cross-multiplying ints, and a chart point's ratios cost two int products
per positive root (``roots.positive_steps``).
Fractions appear only where a rational number enters or leaves: the parsed
JSON numbers (``_exact``), the ``ChartPoint`` coordinates, and the one
division, the chart coordinate t_s / t_{-s} of a simple root s in
``rdata_to_point``.  ``ProjectiveRatio``, ``RData`` and ``ChartPoint`` are
NamedTuples: immutable, and equal to any tuple with the same fields.
"""

import math
from fractions import Fraction
from typing import NamedTuple

from . import linalg, roots as rootsmod
from .errors import MissingPair, NoChartFound, internal_check


class ProjectiveRatio(NamedTuple):
    """A ratio (num : den), not both zero, as its primitive integer pair.

    num and den are coprime ints with den > 0, or the pair is exactly (1:0),
    so two ratios are equal exactly when their fields are.  ``of`` takes ints
    or Fractions in any non-zero scaling.  The JSON form is the fields as
    strings: (2:1) is ``["2", "1"]`` and (0:5) is ``["0", "1"]``.
    ``from_json`` accepts integers, decimals, as JSON numbers or strings, and
    "p/q" strings, but no exponent notation.
    """

    num: int
    den: int

    @staticmethod
    def of(num, den):
        a = num.numerator * den.denominator
        b = den.numerator * num.denominator
        if b < 0 or b == 0 and a < 0:
            a, b = -a, -b
        g = math.gcd(a, b)
        if g == 0:
            raise ValueError("(0 : 0) is not a projective ratio")
        return ProjectiveRatio(a // g, b // g)

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
        return [str(self.num), str(self.den)]

    @staticmethod
    def from_json(pair):
        if not isinstance(pair, list) or len(pair) != 2:
            raise TypeError(f"a ratio is a list of two numbers, not {pair!r}")
        return ProjectiveRatio.of(_exact(pair[0]), _exact(pair[1]))


def _exact(x):
    """A JSON integer, decimal or "p/q" string as a Fraction; no booleans,
    and no exponent notation, as ``Fraction("1e300000")`` builds a
    300,000-digit integer."""
    if isinstance(x, bool):
        raise TypeError(f"{x!r} is not a number")
    if (isinstance(x, str) and ("e" in x or "E" in x)
            or isinstance(x, float) and not math.isfinite(x)):
        raise ValueError(f"{x!r}: exponent notation and non-finite numbers are not accepted")
    return Fraction(x)


class RData(NamedTuple):
    """One ratio per opposite-root pair, keyed by the base-positive root (a
    pair may be keyed by its negative root instead); ``ratio_lists`` reads
    the ratio of every root."""

    ratios: tuple  # sorted tuple of (root index, ProjectiveRatio)

    @staticmethod
    def of(mapping):
        return RData(tuple(sorted(mapping.items())))

    def as_dict(self):
        return dict(self.ratios)


def ratio_lists(r, d):
    """(num, den): two lists indexed by root, (num[a] : den[a]) = (t_a : t_{-a}).

    An entry (num : den) of ``d`` for a also gives (den : num) for -a, unless
    d holds -a itself, whose own entry wins.  The swapped pair is not
    normalized.  A pair with no ratio raises MissingPair.
    """
    num, den = [0] * len(r.roots), [0] * len(r.roots)
    for i, t in d.ratios:
        num[r.neg[i]], den[r.neg[i]] = t.den, t.num
    for i, t in d.ratios:
        num[i], den[i] = t
    missing = next((i for i in r.positive if not (num[i] or den[i])), None)
    if missing is not None:
        raise MissingPair(f"no ratio for the pair of {r.roots[missing]}")
    return num, den


def validate_rdata(r, d):
    """List of additive triples (i, j, k) whose identity fails; empty = ok.

    For every triple root_k = root_i + root_j the cross-multiplied identity
    t_i t_j t_{-k} = t_{-i} t_{-j} t_k must hold exactly, on the ratios of
    ``ratio_lists``.  The identity is homogeneous in each ratio, so the
    swapped pairs need no normalizing.
    """
    num, den = ratio_lists(r, d)
    return [(i, j, k) for i, j, k in rootsmod.additive_triples(r)
            if num[i] * num[j] * den[k] != den[i] * den[j] * num[k]]


class ChartPoint(NamedTuple):
    """A point of the affine chart of a simple root set.

    ``chart`` is the sorted tuple of simple-root indices; ``coords`` holds
    the value of the character of each simple root, aligned with ``chart``.
    Zero values are allowed (the chart is an affine space).
    """

    chart: tuple
    coords: tuple


def universal_rdata_at(r, p):
    """The tautological ratios over a chart point.

    Write x_j = p_j / q_j.  The chart's walk to the base (``roots.chart_walk``)
    gives u in W and moves x_j to the label of u(chart[j]), so a root a has
    the base character of u(a): (prod p^m : prod q^m) for u(a) positive with
    mcoords m, one product each from its parent's pair
    (``roots.positive_steps``), swapped at -u(a) when u(a) is negative.
    Only ints are multiplied.
    """
    u, labels = rootsmod.chart_walk(r, tuple(p.chart))
    nums, dens = [0] * r.rank, [0] * r.rank
    for k, x in zip(labels, p.coords):
        nums[k], dens[k] = x.numerator, x.denominator
    top, bottom = [0] * len(r.roots), [0] * len(r.roots)
    for b, parent, k in rootsmod.positive_steps(r):
        if parent is None:
            top[b], bottom[b] = nums[k], dens[k]
        else:
            top[b], bottom[b] = top[parent] * nums[k], bottom[parent] * dens[k]
        top[r.neg[b]], bottom[r.neg[b]] = bottom[b], top[b]
    return RData(tuple((i, ProjectiveRatio.of(top[u[i]], bottom[u[i]])) for i in r.positive))


def rdata_to_point(r, d):
    """Invert the ratios to a chart point (the representability bijection).

    ``roots.descend`` reflects in simple roots with ratio (1:0), read off
    ``ratio_lists``; no chamber is enumerated.  Under the triple identities a
    root with ratio (1:0) is a sum of simple roots one of which has ratio
    (1:0), so no positive root of the chart reached (not always the first in
    canonical order) has ratio (1:0).  There the coordinate of a simple root
    s is t_s / t_{-s}, on the sorted chart; the reconstruction is checked to
    reproduce ``d``.
    """
    num, den = ratio_lists(r, d)
    walk = rootsmod.descend(r, lambda a: den[a] == 0)
    if walk is None:
        raise NoChartFound("no admissible chart; the ratios violate the triple identities")
    chart = tuple(sorted(walk[0]))
    point = ChartPoint(chart=chart, coords=tuple(Fraction(num[i], den[i]) for i in chart))
    internal_check(universal_rdata_at(r, point) == d,
                   "chart reconstruction failed on validated data")
    return point


def verify_relation_generation(r):
    """Do the additive triples of positive roots generate all linear relations?

    Compares the Hermite form of the lattice spanned by e_i + e_j - e_k (over
    positive triples root_k = root_i + root_j) with the kernel of the
    evaluation map Z^{R+} -> M(R), which ``kernel_basis`` returns in Hermite
    form already.
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
    return linalg.hermite_normal_form(tuple(gens)) == kern


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
        ratio = ProjectiveRatio.from_json(entry["ratio"])
        if i not in r.positive:
            i, ratio = r.neg[i], ratio.swap()
        if i in out:
            raise ValueError(f"the pair of {list(r.roots[i])} is given twice")
        out[i] = ratio
    return RData.of(out)


def chart_point_to_json(r, p):
    return {
        "chart": [list(r.roots[i]) for i in p.chart],
        "coords": [str(x) for x in p.coords],
    }


def chart_point_from_json(r, obj):
    if not (isinstance(obj["chart"], list) and isinstance(obj["coords"], list)):
        raise TypeError("a chart point's chart and coords are JSON lists")
    chart = tuple(r.root_index(tuple(v)) for v in obj["chart"])
    if len(set(chart)) != len(chart):
        twice = next(a for a in chart if chart.count(a) > 1)
        raise ValueError(f"the chart root {list(r.roots[twice])} is given twice")
    order = sorted(range(len(chart)), key=lambda t: chart[t])
    coords = [_exact(x) for x in obj["coords"]]
    if len(chart) != r.rank or len(coords) != r.rank:
        raise ValueError(f"a chart point has {r.rank} simple roots and {r.rank} coordinates")
    return ChartPoint(chart=tuple(chart[t] for t in order),
                      coords=tuple(coords[t] for t in order))
