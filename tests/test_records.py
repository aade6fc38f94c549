"""The value records of the library are immutable tuples.

Every record class is a ``typing.NamedTuple``: setting a field raises, and
equality and hashing are those of the field tuple, as they were for the
frozen dataclasses the records used to be.
"""

from fractions import Fraction

import pytest

from weylfan import chains, fans, rdata, roots, typea

RECORD_NAMES = {
    "RootSystemSpec", "RootSystem",
    "Fan", "FanMorphism", "EmbeddingEquations", "OrbitClosure", "SectionPair",
    "ProjectiveRatio", "RData", "ChartPoint",
    "PrimitiveRelationRecord", "PolytopeInfo",
    "CombType", "MarkedChain", "SectionInfo", "UniversalCurve",
}


def record_classes():
    return {obj.__name__: obj
            for module in (roots, fans, rdata, typea, chains)
            for obj in vars(module).values()
            if isinstance(obj, type) and issubclass(obj, tuple)
            and obj.__module__ == module.__name__ and not obj.__name__.startswith("_")}


def one_of_each():
    """One record of each class, built by the library on A_2."""
    spec = roots.RootSystemSpec.parse([("A", 2)])
    r = roots.build_root_system(spec)
    f = fans.weyl_chamber_fan(r)
    _, morphism = fans.subsystem_morphism(r, [(1, -1, 0)])
    pos = [r.roots[i] for i in r.positive]
    rp = roots.build_root_system(roots.RootSystemSpec.parse([("A", 1)] * len(pos)))
    mu = tuple(v for root in pos for v in (root, (0,) * r.ambient_dim))
    chart = tuple(sorted(r.base_simple_set))
    d = rdata.universal_rdata_at(r, rdata.ChartPoint(chart, (Fraction(2), Fraction(1, 3))))
    ctype = chains.CombType.of([[1], [2, 3]])
    one = rdata.ProjectiveRatio.of(1, 1)
    uc = chains.universal_curve_structure(1)
    return [
        spec, r, f, morphism, fans.projection_embedding_equations(r, rp, mu),
        fans.orbit_closure(r, f, (0,)), fans.opposite_sections(r, (0,)),
        one, d, rdata.rdata_to_point(r, d),
        typea.primitive_collections(2)[0], typea.delta_polytope(2),
        ctype, chains.MarkedChain.of(ctype, {1: one, 2: one, 3: d.ratios[0][1]}),
        uc.sections[0], uc,
    ]


def test_every_record_class_is_a_named_tuple():
    classes = record_classes()
    assert set(classes) == RECORD_NAMES
    assert all(hasattr(cls, "_fields") for cls in classes.values())
    assert {type(x).__name__ for x in one_of_each()} == RECORD_NAMES


@pytest.mark.parametrize("record", one_of_each(), ids=lambda x: type(x).__name__)
def test_records_are_immutable_values(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    copy = type(record)._make(list(record))
    assert copy == record and copy is not record
    assert record == tuple(record)
    if type(record) is chains.UniversalCurve:   # fiber_counts is a dict
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(copy) == hash(record)

