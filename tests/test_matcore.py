"""Unit and property tests for the small dense matrix helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from conftest import elementary
from ncpiv.matcore import (
    anticommutator,
    commutator,
    exponent_diag,
    nilpotent_exp,
    nilpotent_shift,
    power_conjugate,
    right_inverse,
)

finite_reals = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)
nonzero_complex = st.complex_numbers(
    min_magnitude=0.1, max_magnitude=10.0, allow_nan=False, allow_infinity=False
)


def test_elementary_single_entry():
    e = elementary(3, 0, 2)
    assert e[0, 2] == 1.0
    assert np.count_nonzero(e) == 1


def test_shift_commutes_to_minus_itself():
    # [A, J] = -A for the nilpotent shift and the exponent diagonal
    a = nilpotent_shift(2, 0.7)
    j = np.diag(exponent_diag(2).astype(float))
    assert np.allclose(commutator(a, j), -a)


def test_nilpotent_exp_zero_matrix():
    assert np.allclose(nilpotent_exp(np.zeros((2, 2)), 3.1), np.eye(2))


def test_nilpotent_exp_shift():
    nu, x = 0.5, 1.7
    a = nilpotent_shift(2, nu)
    expected = np.eye(2) + nu * x * elementary(2, 0, 1)
    assert np.allclose(nilpotent_exp(a, x), expected)


def test_nilpotent_exp_matches_expm():
    rng = np.random.default_rng(3)
    a = np.triu(rng.normal(size=(3, 3)), k=1)
    assert np.max(np.abs(nilpotent_exp(a, 0.7) - expm(0.7 * a))) < 1e-13


def test_nilpotent_exp_on_an_array_of_x():
    a = np.triu(np.arange(9.0).reshape(3, 3) / 7.0, k=1)
    xs = np.array([-1.5, 0.0, 0.25, 3.0])
    got = nilpotent_exp(a, xs)
    assert got.shape == (4, 3, 3)
    assert np.array_equal(got, np.stack([nilpotent_exp(a, float(x)) for x in xs]))


def test_nilpotent_exp_rejects_non_nilpotent():
    with pytest.raises(ValueError, match="not nilpotent"):
        nilpotent_exp(np.eye(2), 1.0)


@given(x=finite_reals)
@settings(max_examples=50, deadline=None)
def test_nilpotent_exp_inverse(x):
    a = np.triu(np.arange(9.0).reshape(3, 3) / 7.0, k=1)
    prod = nilpotent_exp(a, x) @ nilpotent_exp(a, -x)
    assert np.max(np.abs(prod - np.eye(3))) < 1e-12


def test_power_conjugate_zero_exponents():
    m = np.arange(4.0).reshape(2, 2)
    assert np.allclose(power_conjugate(np.zeros(2, dtype=int), m, 2.3), m)


def test_power_conjugate_entry_scaling():
    m = np.ones((2, 2))
    out = power_conjugate(np.array([1, 0]), m, 2.0)
    assert out[1, 0] == pytest.approx(0.5)
    assert out[0, 1] == pytest.approx(2.0)
    assert out[0, 0] == out[1, 1] == pytest.approx(1.0)


@given(z=nonzero_complex)
@settings(max_examples=50, deadline=None)
def test_power_conjugate_composition_inverse(z):
    d = np.array([2, 1, 0])
    m = np.arange(9.0).reshape(3, 3) + 1.0
    roundtrip = power_conjugate(d, power_conjugate(d, m, z), 1.0 / z)
    assert np.max(np.abs(roundtrip - m)) < 1e-10 * np.max(np.abs(m))


@given(z=nonzero_complex)
@settings(max_examples=50, deadline=None)
def test_power_conjugate_single_valued(z):
    # evaluating at z and at z rotated by a full turn must agree: only
    # integer powers are used, so no branch cut is consulted
    d = np.array([1, 0])
    m = np.ones((2, 2))
    rotated = abs(z) * np.exp(1j * (np.angle(z) + 2.0 * np.pi))
    a = power_conjugate(d, m, z)
    b = power_conjugate(d, m, rotated)
    assert np.max(np.abs(a - b)) < 1e-12 * max(1.0, np.max(np.abs(a)))


def test_power_conjugate_rectangular():
    d_left = np.array([2, 0])
    d_right = np.array([2, 1, 0])
    m = np.ones((2, 3))
    out = power_conjugate(d_left, m, 2.0, d_right)
    expected = 2.0 ** (d_left[:, None] - d_right[None, :])
    assert np.allclose(out, expected)


def test_power_conjugate_pole_at_origin():
    with pytest.raises(ValueError, match="pole at origin"):
        power_conjugate(np.array([1, 0]), np.ones((2, 2)), 0.0)
    with pytest.raises(ValueError, match="pole at origin"):
        power_conjugate(np.array([1, 0]), np.ones((2, 2)), np.array([1.0, 0.0, 2j]))


def test_power_conjugate_node_array():
    d_left, d_right = np.array([2, 0]), np.array([2, 1, 0])
    m = np.arange(6.0).reshape(2, 3) + 1.0
    nodes = np.array([0.5, -1.0 + 2.0j, 3.0j])
    out = power_conjugate(d_left, m, nodes, d_right)
    assert out.shape == (3, 2, 3)
    for z, block in zip(nodes, out):
        assert np.array_equal(block, power_conjugate(d_left, m, z, d_right))
    # no negative exponent: a node at the origin is allowed
    at_zero = power_conjugate(np.array([0, 1]), m[:, :2], np.array([0.0, 1.0]), np.array([0, 0]))
    assert np.array_equal(at_zero[0], np.array([[1.0, 2.0], [0.0, 0.0]]))


def test_right_inverse_square_is_inverse():
    m = np.array([[2.0, 1.0], [1.0, 3.0]])
    assert np.allclose(right_inverse(m), np.linalg.inv(m))


def test_right_inverse_rectangular_residual():
    rng = np.random.default_rng(11)
    m = rng.normal(size=(2, 3))
    assert np.max(np.abs(m @ right_inverse(m) - np.eye(2))) < 1e-10


def test_right_inverse_rank_deficient():
    m = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]])
    with pytest.raises(ValueError, match="rank deficient"):
        right_inverse(m)


@given(st.integers(min_value=0, max_value=1000))
@settings(max_examples=25, deadline=None)
def test_commutator_with_self_vanishes(seed):
    x = np.random.default_rng(seed).normal(size=(3, 3))
    assert np.max(np.abs(commutator(x, x))) == 0.0


def test_anticommutator_with_identity():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(2, 2))
    assert np.allclose(anticommutator(np.eye(2), x), 2.0 * x)


def test_commutator_shape_mismatch():
    with pytest.raises(ValueError):
        commutator(np.eye(2), np.eye(3))
