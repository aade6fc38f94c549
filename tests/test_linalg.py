import random

import pytest

from weylfan import linalg
from weylfan.errors import NotUnimodular


def test_hnf_example():
    m = ((2, 4), (1, 3))
    h, u = linalg.hermite_normal_form(m)
    # Canonical reduced form: entry above the pivot 2 lies in [0, 2).
    assert h == ((1, 1), (0, 2))
    assert linalg.matmul(u, m) == h
    assert abs(linalg.det(u)) == 1


def test_hnf_identity_and_zero():
    ident = linalg.identity_matrix(3)
    h, u = linalg.hermite_normal_form(ident)
    assert h == ident and u == ident
    h, u = linalg.hermite_normal_form(((0, 0),))
    assert h == ((0, 0),)
    assert u == ((1,),)


def test_hnf_idempotent_and_unimodular_random():
    rng = random.Random(11)
    for _ in range(150):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        m = tuple(tuple(rng.randrange(-9, 10) for _ in range(cols)) for _ in range(rows))
        h, u = linalg.hermite_normal_form(m)
        assert linalg.matmul(u, m) == h
        assert abs(linalg.det(u)) == 1
        h2, _ = linalg.hermite_normal_form(h)
        assert h2 == h


def test_kernel_examples():
    assert linalg.kernel_basis(((1,), (1,))) == ((1, -1),)
    # A2 positive roots alpha, beta, gamma=alpha+beta in root-lattice coords.
    mu = ((1, 0), (0, 1), (1, 1))
    assert linalg.kernel_basis(mu) == ((1, 1, -1),)
    assert linalg.kernel_basis(linalg.identity_matrix(3)) == ()


def test_kernel_property_random():
    rng = random.Random(5)
    for _ in range(120):
        rows = rng.randrange(1, 6)
        cols = rng.randrange(1, 5)
        m = tuple(tuple(rng.randrange(-5, 6) for _ in range(cols)) for _ in range(rows))
        kern = linalg.kernel_basis(m)
        for x in kern:
            assert linalg.vec_is_zero(linalg.vec_matmul(x, m))
        assert len(kern) == rows - linalg.rank(m)


def test_lattices_equal():
    assert linalg.lattices_equal(((1, 1, -1),), ((-1, -1, 1),))
    assert not linalg.lattices_equal(((1, 0),), ((2, 0),))
    assert linalg.lattices_equal(((1, 0), (0, 1)), ((1, 1), (0, 1)))


def test_lattices_equal_is_equivalence():
    rng = random.Random(23)
    for _ in range(60):
        m = tuple(tuple(rng.randrange(-4, 5) for _ in range(3)) for _ in range(3))
        assert linalg.lattices_equal(m, m)
        # a unimodular transform preserves the lattice
        u = ((1, 1, 0), (0, 1, 0), (0, 0, 1))
        assert linalg.lattices_equal(m, linalg.matmul(u, m))


def dual_basis(b):
    """For a square unimodular b, the matrix d with b * d^T = identity: the
    dual basis of the rows of b.  Raises NotUnimodular otherwise."""
    return linalg.transpose(linalg.int_inverse(b))


def test_dual_basis():
    ident = linalg.identity_matrix(4)
    assert dual_basis(ident) == ident
    with pytest.raises(NotUnimodular):
        dual_basis(((2,),))
    for non_square in (((1, 0), (0, 1), (1, 1)), ((1, 0, 0), (0, 1, 0))):
        with pytest.raises(NotUnimodular):
            linalg.int_inverse(non_square)
        with pytest.raises(NotUnimodular):
            dual_basis(non_square)
    # A2 simple roots in root-lattice coordinates are the identity already;
    # a sheared unimodular basis round-trips through the pairing.
    b = ((1, 1), (0, 1))
    d = dual_basis(b)
    assert linalg.matmul(b, linalg.transpose(d)) == linalg.identity_matrix(2)
    assert dual_basis(d) == b


def test_dual_basis_involution_random():
    rng = random.Random(3)
    for _ in range(80):
        # random unimodular matrix: product of elementary shears and swaps
        n = rng.randrange(1, 5)
        b = [list(row) for row in linalg.identity_matrix(n)]
        for _ in range(8):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                c = rng.randrange(-3, 4)
                b[i] = [x + c * y for x, y in zip(b[i], b[j])]
        b = tuple(map(tuple, b))
        d = dual_basis(b)
        assert linalg.matmul(b, linalg.transpose(d)) == linalg.identity_matrix(n)
        assert dual_basis(d) == b


def test_solve_left():
    basis = ((1, 2, 0), (0, 1, 1))
    x = linalg.solve_left(basis, (1, 3, 1))
    assert x == (1, 1)
    assert linalg.solve_left(basis, (0, 0, 1)) is None
    assert linalg.solve_left_int(((2, 0), (0, 1)), (1, 0)) is None
