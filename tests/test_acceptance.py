"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Each criterion runs the library check that the matching ``sp4ps verify``
suite runs, on the inputs pinned here: windows, lambda and z lists, pair
counts and draws.  The checks are exact unless they state a float
tolerance; tolerances live in the checks and are the ones ``verify`` uses.
"""

import math
import time
from fractions import Fraction as F

from sp4ps.exact import Character, HalfInt, half_range
from sp4ps.gkmod import bracket_check, casimir_check, ktype_basis, ktypes, m_set
from sp4ps.intertwine import (braid_check, closed_form_check, genfun_check, hg_check,
                              inversion_check, mellin_numeric_check, mn_inverse_check,
                              parity_check)
from sp4ps.sp4 import (hc_omega2, iwasawa_exact_check, iwasawa_float_check, random_element,
                       weyl_on_lambda)
from sp4ps.wigner import (EulerAngles, WignerIndex, cg_product_check, d_matrix_check,
                          euler_from_u2, jacobi_check, little_d_check, su2_matrix)

_REPORT = []


def _report(num, name, ok, t0):
    line = "criterion %2d %-28s %s  (%.1fs)" % (num, name, "PASS" if ok else "FAIL", time.time() - t0)
    _REPORT.append(line)
    print(line)
    assert ok, line


def test_criterion_01_change_of_basis_inversion():
    t0 = time.time()
    ok = all(mn_inverse_check(HalfInt(tj)) for tj in range(0, 13))   # every j <= 6
    _report(1, "M N = identity (j<=6)", ok, t0)


def test_criterion_02_closed_form_equivalence():
    t0 = time.time()
    zs = [F(3, 2), F(5, 2), F(7, 2), F(9, 2), F(11, 2)]
    ok = all(closed_form_check(j, zs) for j in range(0, 5))
    _report(2, "3F2 closed form = sum (j<=4)", ok, t0)


def test_criterion_03_inversion_identity():
    t0 = time.time()
    zs = [F(7, 2), F(5, 2), F(11, 3)]
    ok = all(inversion_check(j, n, delta, zs)
             for delta in ((0, 0), (1, 1)) for j in range(0, 5) for n in (j % 2, (j + 1) % 2)
             if m_set(j, n, (delta[1], delta[0])))
    _report(3, "sum S(z)S(1-z) = identity", ok, t0)


def test_criterion_04_genfun_equivalence():
    t0 = time.time()
    # the genfun route divides by a constant fixed in advance, so this
    # compares two independent computations entry by entry
    chars = [((0, 0), (F(9, 2), F(5, 2))), ((0, 0), (F(7, 2), F(3, 2))),
             ((0, 0), (F(13, 2), F(3, 2))), ((0, 0), (F(5, 3), F(-2, 7))),
             ((1, 1), (F(6), F(4)))]
    ok = all(genfun_check((j, n), Character(delta, lam))
             for delta, lam in chars for j in range(0, 4)
             for n in (j % 2, (j + 1) % 2)             # both parity cases eps = 0, 1
             if m_set(j, n, delta))
    _report(4, "generating function = product", ok, t0)


def test_criterion_05_hg_generating_functions():
    t0 = time.time()
    zs = [F(3, 2), F(5, 2), F(7, 2), F(9, 2), F(11, 2)]
    ok = all(hg_check(j, zs) for j in range(0, 4))
    _report(5, "[H]_0 = [G]_0 = script-S (j<=3)", ok, t0)


def test_criterion_06_casimir_scalar():
    t0 = time.time()
    ok = True
    for lam in [(F(1, 2), F(1, 3)), (F(2), F(1)), (F(5), F(3))]:
        chi = Character((0, 0), lam)
        # Weyl invariance of the scalar in lambda
        for word in (["a1"], ["a2"], ["a1", "a2", "a1"]):
            ok = ok and hc_omega2(weyl_on_lambda(word, lam)) == hc_omega2(lam)
        ok = ok and all(casimir_check(ktype_basis(j, n, (0, 0)), chi)
                        for (j, n, _mult) in ktypes((0, 0), 4, 4))
    _report(6, "Casimir scalar = hc(lambda)", ok, t0)


def test_criterion_07_bracket_homomorphism(rng):
    t0 = time.time()
    chi = Character((0, 0), (F(7, 3), F(4, 5)))
    vecs = [v for (j, n, _mult) in ktypes((0, 0), 2, 2) for v in ktype_basis(j, n, (0, 0))]
    ok = True
    for _pair in range(20):
        x, y = random_element(rng), random_element(rng)
        ok = bracket_check(x, y, vecs, chi) and ok
    _report(7, "[dl X, dl Y] = dl [X,Y]", ok, t0)


def test_criterion_08_wigner_layer(rng):
    t0 = time.time()
    ok = jacobi_check(rng, 50)
    # little_d against the Jacobi route, every entry of j <= 5
    ok = little_d_check([(j, m1, m2, rng.uniform(0.1, math.pi - 0.1))
                         for j in map(HalfInt, range(0, 11))
                         for m1 in half_range(-j, j) for m2 in half_range(-j, j)]) and ok
    ok = d_matrix_check(rng, 5, 3) and ok                   # unitarity/multiplicativity, j<=3
    cases = []                                             # CG product expansion
    for _ in range(20):
        u = su2_matrix(*[rng.uniform(-3, 3) for _ in range(4)])
        ea = EulerAngles(*euler_from_u2(u))
        tj = rng.randrange(0, 7)
        m11 = HalfInt(rng.randrange(-tj, tj + 1, 2) if tj else 0)
        m12 = HalfInt(rng.randrange(-tj, tj + 1, 2) if tj else 0)
        idx1 = WignerIndex.of(HalfInt(tj), HalfInt(tj % 2), m11, m12)
        idx2 = WignerIndex.of(1, 1, rng.choice([-1, 0, 1]), rng.choice([-1, 0, 1]))
        cases.append((idx1, idx2, ea))
    ok = cg_product_check(cases) and ok
    _report(8, "Wigner layer identities", ok, t0)


def test_criterion_09_iwasawa(rng):
    t0 = time.time()
    ok = True
    for simple in ("a1", "a2"):
        ok = iwasawa_exact_check(simple, [F(3, 4), F(5, 12), F(8, 15)]) and ok
        ok = iwasawa_float_check(simple, rng, 10) and ok
    _report(9, "Iwasawa reconstruction", ok, t0)


def test_criterion_10_mellin_numerics():
    t0 = time.time()
    ok = all(mellin_numeric_check(z, m) for z in (1.0, 1.5, 2.0, 2.5)
             for m in (F(0), F(1, 2), F(1), F(3, 2)))
    _report(10, "Mellin quadrature vs Q", ok, t0)


def test_criterion_11_parity_vanishing():
    t0 = time.time()
    ok = all(parity_check(j, F(5, 2)) for j in range(0, 5))
    _report(11, "parity vanishing of S", ok, t0)


def test_criterion_12_braid_relation():
    t0 = time.time()
    # the long operator along both reduced Weyl words, on every block of
    # j, |n| <= 3: exact at rational lambda (the blocks at (7,2) include zero
    # ones), complex at every delta class
    chars = [((0, 0), (F(7, 3), F(4, 5))), ((0, 0), (F(9, 2), F(5, 2))),
             ((1, 1), (F(6), F(4))), ((1, 1), (F(7), F(2))), ((1, 1), (F(8), F(3))),
             ((0, 1), (3.3 + 0.4j, 0.7 - 0.2j)), ((1, 0), (1.7 + 0.3j, -0.4 + 1.1j)),
             ((1, 1), (2.3 + 0.7j, 0.4 - 0.2j))]
    ok = all(braid_check([(j, n) for j, n, _ in ktypes(delta, 3, 3)], Character(delta, lam))
             for delta, lam in chars)
    _report(12, "two reduced words agree", ok, t0)


def test_zz_summary():
    print()
    for line in _REPORT:
        print(line)
    assert len(_REPORT) == 12
