"""The wedge-product oracle: permutation signs, alternation, and
pairwise wedges."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from oracles import alt, grid_norm_sq, signature, wedge_pair


def transposition_count_sign(image) -> int:
    """Independent route: sort by swaps and count them."""
    image = list(image)
    swaps = 0
    for i in range(len(image)):
        while image[i] != i:
            j = image[i]
            image[i], image[j] = image[j], image[i]
            swaps += 1
    return -1 if swaps % 2 else 1


class TestSignature:
    def test_small_cases(self):
        assert signature((0, 1, 2)) == 1
        assert signature((1, 0, 2)) == -1
        assert signature((1, 2, 0)) == 1  # 3-cycle, two transpositions

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_matches_inversion_count(self, m):
        for image in itertools.permutations(range(m)):
            assert signature(image) == transposition_count_sign(image)

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_multiplicative(self, m):
        perms = list(itertools.permutations(range(m)))
        for p in perms:
            for q in perms:
                p_after_q = tuple(p[i] for i in q)
                assert signature(p_after_q) == signature(p) * signature(q)


class TestAlt:
    def test_two_vectors_halved_wedge(self):
        # with the 1/m! factor, alt on two vectors gives half the pair wedge
        v = np.array([1.0, 2.0], dtype=np.complex128)
        w = np.array([0.5, -1.0j], dtype=np.complex128)
        a = alt([v, w])
        expected = (np.outer(v, w) - np.outer(w, v)) / 2.0
        np.testing.assert_allclose(a, expected, atol=1e-15)

    def test_repeated_vector_vanishes(self):
        v = np.array([1.0, 1.0j, -2.0], dtype=np.complex128)
        a = alt([v, v])
        np.testing.assert_allclose(a, 0, atol=0)

    def test_projection(self, rng):
        tensor = rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3))
        once = alt(tensor)
        twice = alt(once)
        np.testing.assert_allclose(twice, once, atol=1e-12)

    def test_antisymmetry(self, rng):
        tensor = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
        a = alt(tensor)
        np.testing.assert_allclose(a, -a.transpose(1, 0, 2), atol=1e-12)
        np.testing.assert_allclose(a, -a.transpose(0, 2, 1), atol=1e-12)

    def test_decomposable_matches_grid(self, rng):
        vecs = [
            rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(3)
        ]
        grid = np.multiply.outer(np.multiply.outer(vecs[0], vecs[1]), vecs[2])
        np.testing.assert_allclose(alt(vecs), alt(grid), atol=1e-13)


class TestWedgePair:
    def test_component_layout(self):
        # rows (a, b) and (c, d): entries (0, ad - cb, bc - da, 0)
        v = np.array([2.0, 3.0], dtype=np.complex128)
        w = np.array([5.0, 7.0], dtype=np.complex128)
        grid = wedge_pair(v, w)
        d = 2.0 * 7.0 - 5.0 * 3.0
        np.testing.assert_allclose(grid.reshape(-1), [0.0, d, -d, 0.0], atol=0)

    def test_no_half_factor(self):
        # the pair wedge is v (x) w - w (x) v, twice the alternation
        v = np.array([1.0, 0.0], dtype=np.complex128)
        w = np.array([0.0, 1.0], dtype=np.complex128)
        np.testing.assert_allclose(wedge_pair(v, w), 2.0 * alt([v, w]), atol=0)

    def test_self_wedge_vanishes(self, rng):
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        np.testing.assert_allclose(wedge_pair(v, v), 0, atol=0)

    def test_antisymmetric(self, rng):
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        np.testing.assert_array_equal(wedge_pair(v, w), -wedge_pair(w, v))

    def test_basis_vectors(self):
        e1 = np.array([1.0, 0.0, 0.0], dtype=np.complex128)
        e2 = np.array([0.0, 1.0, 0.0], dtype=np.complex128)
        grid = wedge_pair(e1, e2)
        assert grid[0, 1] == 1.0
        assert grid[1, 0] == -1.0
        assert grid_norm_sq(grid) == 2.0


class TestGridNormSq:
    def test_zero(self):
        assert grid_norm_sq(np.zeros((2, 2), dtype=np.complex128)) == 0.0

    def test_bell_rows(self):
        rows = np.eye(2, dtype=np.complex128) / math.sqrt(2)
        assert abs(grid_norm_sq(wedge_pair(rows[0], rows[1])) - 0.5) < 1e-15

    def test_matches_direct_loop(self, rng):
        entries = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        grid = entries.reshape(3, 4)
        direct = sum(abs(z) ** 2 for z in entries)
        assert abs(grid_norm_sq(grid) - direct) < 1e-12

    def test_lagrange_identity(self, rng):
        # |v|^2 |w|^2 - |<v, w>|^2 is half the wedge's squared norm
        for _ in range(20):
            v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            w = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            lhs = grid_norm_sq(wedge_pair(v, w))
            rhs = 2.0 * (
                np.linalg.norm(v) ** 2 * np.linalg.norm(w) ** 2
                - abs(np.vdot(v, w)) ** 2
            )
            assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))
