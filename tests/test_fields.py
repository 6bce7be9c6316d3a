import pytest

from flagcodes import fields
from flagcodes.fields import (
    MAX_ORDER,
    FieldError,
    FiniteField,
    field_from_order,
    field_new,
    parse_field_spec,
)
from flagcodes.linalg import _digits, _space
from conftest import SMALL_ORDERS


def test_prime_field_basics():
    F = field_new(2)
    assert F.q == 2
    assert F.add(1, 1) == 0
    assert F.modulus == ()


def test_default_quadratic_modulus_over_f2():
    # the only irreducible quadratic over F_2 is x^2 + x + 1
    F = field_new(2, 2)
    assert F.modulus == (1, 1, 1)


def test_f4_multiplication():
    # x * x = x + 1 under modulus x^2 + x + 1: rep 2 * 2 -> 3
    F = field_new(2, 2)
    assert F.mul(2, 2) == 3


def test_f3_inverse():
    F = field_new(3)
    assert F.inv(2) == 2


def test_nonprime_p_rejected():
    with pytest.raises(FieldError):
        field_new(4)


def test_reducible_modulus_rejected():
    with pytest.raises(FieldError):
        field_new(2, 2, (1, 0, 1))  # x^2 + 1 = (x+1)^2


def test_degree_mismatch_rejected():
    with pytest.raises(FieldError):
        field_new(2, 3, (1, 1, 1))


@pytest.mark.parametrize("modulus", [(1.5, 1, 1), (1, 1.0, 1), (True, 1, 1), (1, 1, "1")])
def test_modulus_coefficients_must_be_integers(modulus):
    # Truncating 1.5 or reading True as 1 would load x^2 + x + 1 from a
    # modulus nobody wrote.
    with pytest.raises(FieldError, match="modulus coefficient .* is not an integer"):
        field_new(2, 2, modulus)


def test_inversion_of_zero():
    with pytest.raises(FieldError):
        field_new(5).inv(0)


@pytest.mark.parametrize("p,m", SMALL_ORDERS)
def test_field_axioms_exhaustive(p, m):
    F = field_new(p, m)
    els = list(F.elements())
    for a in els:
        assert F.add(a, 0) == a
        assert F.mul(a, 1) == a
        assert F.add(a, F.neg(a)) == 0
        if a:
            assert F.mul(a, F.inv(a)) == 1
    for a in els:
        for b in els:
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
    for a in els:
        for b in els:
            for c in els:
                assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
                assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


def test_field_from_order():
    assert field_from_order(8).p == 2
    assert field_from_order(9).m == 2
    with pytest.raises(FieldError):
        field_from_order(6)


def test_spec_round_trip():
    for p, m in SMALL_ORDERS:
        F = field_new(p, m)
        assert parse_field_spec(F.spec()) == F


def test_equal_fields_hash_equal_and_share_one_space():
    # A field built with its default modulus given equals the field built
    # without it, hashes equal to it, and keys the same cached kernel.
    for p, m in SMALL_ORDERS:
        F = field_new(p, m)
        G = field_new(p, m, list(F.modulus) or None)
        assert F is not G and F == G
        assert hash(F) == hash(G) == hash((p, m, F.modulus))
        assert _space(F, 4) is _space(G, 4) and _digits(F) is _digits(G)
    F8, other = field_new(2, 3), field_new(2, 3, (1, 1, 0, 1))
    assert F8.modulus != other.modulus and F8 != other
    assert _space(F8, 4) is not _space(other, 4)


@pytest.mark.parametrize("p,m", SMALL_ORDERS)
def test_kernel_tables_match_scalar_methods(p, m):
    F = field_new(p, m)
    els = list(F.elements())
    for a in els:
        for b in els:
            assert F.mul_table[a][b] == F.mul(a, b)
            assert F.sub_table[a][b] == F.sub(a, b)
    assert F.inv_table[0] is None
    assert F.inv_table[1:] == [F.inv(a) for a in els[1:]]


@pytest.mark.parametrize(
    "p,m", [(257, 1), (2, 9), (3, 6), (2, 10**9), (10**18 + 3, 1)]
)
def test_orders_above_the_limit_rejected_before_building(p, m, monkeypatch):
    def forbidden(*args):
        raise AssertionError("field construction started")

    monkeypatch.setattr(fields, "is_prime", forbidden)
    monkeypatch.setattr(fields, "_smallest_irreducible", forbidden)
    monkeypatch.setattr(FiniteField, "mul", forbidden)
    monkeypatch.setattr(FiniteField, "sub", forbidden)
    with pytest.raises(FieldError, match=str(MAX_ORDER)):
        field_new(p, m)


@pytest.mark.parametrize("q", [257, 1000003, 100000007])
def test_field_from_order_refuses_large_orders_before_factoring(q, monkeypatch):
    def forbidden(*args):
        raise AssertionError("prime search started")

    monkeypatch.setattr(fields, "is_prime", forbidden)
    with pytest.raises(FieldError, match=str(MAX_ORDER)):
        field_from_order(q)
