"""Sparse exact matrices: products, charpolys, restriction."""

from fractions import Fraction

import pytest

from lielap.gaussian import GQ, I
from lielap.linalg import Matrix, add_product, charpoly_gq, restrict_operator


def mat(rows):
    return Matrix.from_dense([[GQ(Fraction(x)) for x in row] for row in rows])


def test_identity_and_scalar():
    m = Matrix.identity(3)
    assert m.is_scalar(Fraction(1))
    assert (m * GQ(5)).is_scalar(Fraction(5))
    assert not mat([[1, 1], [0, 1]]).is_scalar(Fraction(1))


def test_matmul_against_dense():
    a = mat([[1, 2], [3, 4]])
    b = mat([[0, 1], [1, 0]])
    assert a @ b == mat([[2, 1], [4, 3]])
    assert a @ Matrix.identity(2) == a


def test_add_product_accumulates():
    a = mat([[1, 0], [0, 2]])
    b = mat([[0, 3], [4, 0]])
    acc = [dict() for _ in range(2)]
    add_product(acc, a, b, GQ(1))
    add_product(acc, a, b, GQ(-1))
    assert Matrix.from_rows(2, 2, acc).is_zero_matrix()


def test_conj():
    m = Matrix.from_dense([[I, GQ(1)], [GQ(0), -I]])
    assert m.conj()[0, 0] == -I
    assert m.conj()[0, 1] == GQ(1)


def test_kron_mixed_product():
    a = mat([[1, 2], [0, 1]])
    b = mat([[2, 0], [1, 1]])
    c = mat([[1, 1], [1, 0]])
    d = mat([[0, 1], [2, 1]])
    assert (a @ c).kron(b @ d) == (a.kron(b)) @ (c.kron(d))


def test_charpoly_2x2():
    # [[2, 1], [1/2, 0]]: trace 2, det -1/2 -> X^2 - 2X - 1/2
    m = Matrix.from_dense(
        [[GQ(2), GQ(1)], [GQ(Fraction(1, 2)), GQ(0)]]
    )
    cs = charpoly_gq(m)
    assert [c.re for c in cs] == [Fraction(-1, 2), Fraction(-2), Fraction(1)]
    assert all(c.im == 0 for c in cs)


def test_charpoly_diag_gaussian():
    m = Matrix.diagonal([I, -I])
    cs = charpoly_gq(m)  # (X - i)(X + i) = X^2 + 1
    assert [complex(c) for c in cs] == [1, 0, 1]


def test_charpoly_companion():
    # companion matrix of X^3 - 7X + 6
    m = mat([[0, 0, -6], [1, 0, 7], [0, 1, 0]])
    cs = charpoly_gq(m)
    assert [c.re for c in cs] == [Fraction(6), Fraction(-7), Fraction(0), Fraction(1)]


def test_restrict_operator():
    d = mat([[1, 0, 0], [0, 2, 0], [0, 0, 2]])
    k = mat([[0, 0], [1, 0], [0, 1]])  # invariant: spans the 2-eigenspace
    r = restrict_operator(d, k, [1, 2])
    assert r.nrows == 2 and r.is_scalar(Fraction(2))


def test_restrict_operator_reads_rows_at_pivots():
    # span(e1 + e2, e3) is invariant; the pivots are rows 0 and 2
    d = mat([[1, 2, 0], [2, 1, 0], [0, 0, 5]])
    k = mat([[1, 0], [1, 0], [0, 1]])
    r = restrict_operator(d, k, [0, 2])
    assert r == mat([[3, 0], [0, 5]])
    assert k @ r == d @ k


def test_restrict_operator_rejects_noninvariant():
    d = mat([[0, 1], [0, 0]])
    k = mat([[0], [1]])  # d maps e2 to e1, outside span(e2)
    with pytest.raises(ArithmeticError):
        restrict_operator(d, k, [1])


def test_restrict_operator_needs_identity_rows_at_pivots():
    d = mat([[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        restrict_operator(d, mat([[0], [2]]), [1])
    with pytest.raises(ValueError):
        restrict_operator(d, mat([[1], [0]]), [0, 1])


def test_trace():
    assert mat([[3, 1], [1, 4]]).trace() == GQ(7)
