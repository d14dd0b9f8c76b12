import math
from fractions import Fraction as F

import numpy as np
import pytest
from scipy.linalg import expm

from sp4ps.sp4 import (ALL_ROOTS, CY_I, CY_INV_SQRT2, Cyc8, GMat, H1, H2, bracket,
                       cayley_check, chevalley, chi_alpha,
                       decompose_chevalley,
                       h_alpha, hc_omega2, hc_omega4, in_sp4, is_symplectic,
                       iwasawa_exact_check, iwasawa_float_check, iwasawa_sl2, omega2_words, root_on_h,
                       symplectic_inverse,
                       u2_generators, u_beta, v_beta, weyl_on_lambda,
                       weyl_reflection)


def test_cyc8_field():
    w = Cyc8(0, 1, 0, 0)
    assert w * w == CY_I
    assert w * w * w * w == Cyc8(-1)


def test_chevalley_matrices_and_brackets():
    assert chevalley("a2") == GMat.build([[0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0]])
    assert bracket(chevalley("a1"), chevalley("a1+a2")) == chevalley("2a1+a2").scale(2)
    for lab in ALL_ROOTS:
        assert in_sp4(chevalley(lab))
        c1, c2 = root_on_h(lab)
        assert bracket(H1, chevalley(lab)) == chevalley(lab).scale(c1)
        assert bracket(H2, chevalley(lab)) == chevalley(lab).scale(c2)
    assert in_sp4(H1) and in_sp4(H2)
    # nilpotent commutes inside the Heisenberg radical
    assert bracket(chevalley("a1+a2"), chevalley("2a1+a2")).is_zero()
    assert bracket(chevalley("a2"), chevalley("-a2")) == H2
    assert bracket(chevalley("a1"), chevalley("-a1")) == H1 - H2


def test_u2_generators():
    U0, U1, U2, U3 = u2_generators()
    assert bracket(U1, U2) == -U3
    assert bracket(U2, U3) == -U1
    assert bracket(U3, U1) == -U2
    for U in (U1, U2, U3):
        assert bracket(U0, U).is_zero()
    assert U0 + U3 == chevalley("2a1+a2") - chevalley("-2a1+a2")
    assert U0 - U3 == chevalley("a2") - chevalley("-a2")
    assert U1.scale(2) == chevalley("a1+a2") - chevalley("-a1+a2")
    assert U2.scale(2) == chevalley("a1") - chevalley("-a1")


def test_weyl_reflections():
    w1, w2 = weyl_reflection("a1"), weyl_reflection("a2")
    assert is_symplectic(w1) and is_symplectic(w2)
    U0, U1m, U2m, U3m = u2_generators()
    assert np.abs(w1.to_numpy() - expm(math.pi * U2m.to_numpy())).max() < 1e-12
    assert w2 @ w2 @ w2 @ w2 == GMat.identity()


def test_weyl_on_lambda():
    assert weyl_on_lambda(["a1"], (3, 5)) == (5, 3)
    assert weyl_on_lambda(["a2"], (3, 5)) == (3, -5)
    assert weyl_on_lambda([], (F(1, 2), F(2, 3))) == (F(1, 2), F(2, 3))
    assert weyl_on_lambda(["a2", "a1", "a2", "a1"], (F(7), F(2))) == (-7, -2)


def test_hc_images():
    assert hc_omega2((2, 1)) == 0
    assert hc_omega2((F(0), F(0))) == F(-5, 12)
    # Weyl-invariance for all words of length <= 4
    words = [[]]
    for _ in range(4):
        words = words + [w + [s] for w in words for s in ("a1", "a2")]
    for w in words:
        lam = (F(3, 7), F(9, 5))
        assert hc_omega2(weyl_on_lambda(w, lam)) == hc_omega2(lam)
        assert hc_omega4(weyl_on_lambda(w, lam)) == hc_omega4(lam)


def test_omega2_words_shape():
    words = omega2_words()
    assert len(words) == 8
    # the Cartan part must reproduce the Harish-Chandra image after the
    # rho-shift: (1/12)((x-2)^2+(y-1)^2+4(x-2)+2(y-1)) = hc_omega2(x,y)
    x, y = F(11, 3), F(5, 7)
    cart = F(1, 12) * ((x - 2) ** 2 + (y - 1) ** 2 + 4 * (x - 2) + 2 * (y - 1))
    assert cart == hc_omega2((x, y))


def test_iwasawa_exact():
    ts = [F(0), F(3, 4), F(5, 12), F(8, 15)]
    for simple in ("a1", "a2"):
        assert iwasawa_exact_check(simple, ts)
        for t in ts:
            assert all(is_symplectic(g) for g in iwasawa_sl2(simple, t))
    # worked numbers at t = 3/4: h carries 5/4, chi carries 12/25
    k, h, chi_n = iwasawa_sl2("a1", F(3, 4))
    assert h == h_alpha("a1", F(5, 4))
    assert chi_n == chi_alpha("a1", F(12, 25))
    with pytest.raises(ValueError):
        iwasawa_sl2("a1", F(1, 3))     # 1 + 1/9 is not a perfect square


def test_iwasawa_float(rng):
    for simple in ("a1", "a2"):
        assert iwasawa_float_check(simple, rng, 10)


def test_weyl_conjugation_keeps_nilradical():
    # w_alpha^{-1} exp(t X_beta) w_alpha stays in N for positive beta != alpha
    for simple in ("a1", "a2"):
        w = weyl_reflection(simple)
        winv = symplectic_inverse(w)
        for lab in ("a1", "a2", "a1+a2", "2a1+a2"):
            x = winv @ chevalley(lab) @ w
            co = decompose_chevalley(x)
            if lab == simple:
                assert set(co) == {"-" + simple}
            else:
                assert all(not name.startswith("-") for name in co), (simple, lab, co)


def test_cayley():
    assert cayley_check()


def test_symplectic_inverse():
    # the inverse transpose of a symplectic matrix is symplectic and agrees
    # with numpy's inverse
    g = weyl_reflection("a1") @ h_alpha("a2", F(2))
    tg = symplectic_inverse(g).transpose()
    assert is_symplectic(tg)
    assert np.abs(tg.to_numpy() - np.linalg.inv(g.to_numpy()).T).max() < 1e-12


def test_u_beta_normalization():
    U0, U1, U2, U3 = u2_generators()
    assert u_beta(1, 1) == ((U0 + U3) + H1.scale(CY_I) - chevalley("2a1+a2").scale(2)).scale(CY_INV_SQRT2)
    assert u_beta(0, 1) == v_beta(0, 1)
    # weights: [U3, u] = i m u and [U0, u] = i n u
    for (mb, nb) in ((1, 1), (-1, -1), (-1, 1), (1, -1), (0, 1), (0, -1)):
        u = u_beta(mb, nb)
        assert bracket(U3, u) == u.scale(CY_I * Cyc8.of(mb))
        assert bracket(U0, u) == u.scale(CY_I * Cyc8.of(nb))


def test_decompose_roundtrip(rng):
    x = GMat.zero()
    coef = {}
    for lab in ("H1", "H2") + ALL_ROOTS:
        c = F(rng.randrange(-5, 6), rng.randrange(1, 4))
        coef[lab] = c
        x = x + chevalley(lab).scale(Cyc8.of(c))
    d = decompose_chevalley(x)
    for lab, c in coef.items():
        assert d.get(lab, Cyc8()) == Cyc8.of(c)
    with pytest.raises(ValueError):
        decompose_chevalley(GMat.build([[1, 0, 0, 0]] + [[0] * 4] * 3))


# The supports of the ten Chevalley matrices tile the 4x4 grid.  A
# coordinate is read at one position of its support; the other position of
# the six two-entry supports is fixed by it:
# (2,2) = -(0,0), (3,3) = -(1,1), (3,2) = -(0,1), (2,3) = -(1,0),
# (0,3) = (1,2) and (3,0) = (2,1).
DEPENDENT = ((2, 2), (3, 3), (3, 2), (2, 3), (0, 3), (3, 0))


def _rows(x):
    return [[x.entry(i, k) for k in range(4)] for i in range(4)]


def test_decompose_rejects_broken_dependent_entry():
    x = GMat.zero()
    for lab, c in zip(("H1", "H2") + ALL_ROOTS, (1, -2, 3, -1, 2, -3, 1, 2, -1, 3)):
        x = x + chevalley(lab).scale(c)
    coords = decompose_chevalley(x)
    assert len(coords) == 10
    for (i, k) in DEPENDENT:
        rows = _rows(x)
        rows[i][k] = rows[i][k] + Cyc8(F(1, 2))   # every read position agrees
        with pytest.raises(ValueError):
            decompose_chevalley(GMat.build(rows))


def test_decompose_rejects_entry_outside_nonzero_supports():
    # one nonzero entry and no nonzero coordinate: the reconstruction is 0
    for (i, k) in DEPENDENT:
        rows = [[0] * 4 for _ in range(4)]
        rows[i][k] = Cyc8(0, 1, 0, -1)              # sqrt2
        with pytest.raises(ValueError):
            decompose_chevalley(GMat.build(rows))
    # a dependent entry of a support whose coordinate is nonzero, beside it
    rows = _rows(chevalley("a1").scale(2))
    rows[2][2] = Cyc8(1)
    with pytest.raises(ValueError):
        decompose_chevalley(GMat.build(rows))
