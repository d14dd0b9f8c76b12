"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every check is exact unless the criterion states a float tolerance; bounds
and tolerances are pinned here, not configurable.
"""

import math
import time
from fractions import Fraction as F

import numpy as np
from scipy.linalg import expm

from sp4ps.exact import Character, ExactScalar, HalfInt, half_range
from sp4ps.gkmod import (RSum, dl_element, ktype_allowed, ktypes, lc_add,
                         lc_scale, m_set, omega2_action)
from sp4ps.intertwine import (genfun_vs_product, hg_entry_ct, inversion_check,
                              long_operator_product, mellin_numeric_check,
                              mn_matrices, s_entry_3f2, s_entry_sum, s_norm)
from sp4ps.sp4 import (ALL_ROOTS, Cyc8, GMat, bracket, chevalley,
                       exp_nilpotent, hc_omega2, iwasawa_sl2,
                       weyl_on_lambda)
from sp4ps.wigner import (EulerAngles, WignerIndex, euler_from_u2,
                          jacobi_hyp, jacobi_sum, little_d, product_expand,
                          su2_matrix, wigner_D, wigner_D_matrix,
                          wigner_via_jacobi)

_REPORT = []


def _report(num, name, ok, t0):
    line = "criterion %2d %-28s %s  (%.1fs)" % (num, name, "PASS" if ok else "FAIL", time.time() - t0)
    _REPORT.append(line)
    print(line)
    assert ok, line


def test_criterion_01_change_of_basis_inversion():
    t0 = time.time()
    ok = True
    for tj in range(0, 13):                      # every j <= 6, half-integer steps
        m, n = mn_matrices(HalfInt(tj))
        ok = ok and m.matmul(n).is_identity()
    _report(1, "M N = identity (j<=6)", ok, t0)


def test_criterion_02_closed_form_equivalence():
    t0 = time.time()
    ok = True
    zs = [F(3, 2), F(5, 2), F(7, 2), F(9, 2), F(11, 2)]
    for j in range(0, 5):
        for m1 in range(-j, j + 1):
            for m4 in range(-j, j + 1):
                if (m1 - m4) % 2:
                    continue
                for z in zs:
                    ok = ok and s_entry_3f2(j, 0, m1, m4, z) == s_entry_sum(j, 0, m1, m4, z)
    _report(2, "3F2 closed form = sum (j<=4)", ok, t0)


def test_criterion_03_inversion_identity():
    t0 = time.time()
    ok = True
    zs = [F(7, 2), F(5, 2), F(11, 3)]
    for delta in ((0, 0), (1, 1)):
        for j in range(0, 5):
            for n in (j % 2, (j + 1) % 2):
                if not m_set(j, n, (delta[1], delta[0])):
                    continue
                for z in zs:
                    ok = ok and inversion_check(j, n, delta, z)
    _report(3, "sum S(z)S(1-z) = identity", ok, t0)


def test_criterion_04_genfun_equivalence():
    t0 = time.time()
    ok = True
    lams = [(F(9, 2), F(5, 2)), (F(7, 2), F(3, 2)), (F(13, 2), F(3, 2))]
    for lam in lams:
        chi = Character((0, 0), lam)
        for j in range(0, 4):
            for n in (j % 2, (j + 1) % 2):       # both parity cases eps = 0, 1
                if not m_set(j, n, (0, 0)):
                    continue
                gm, const = genfun_vs_product((j, n), chi)
                pm = long_operator_product((j, n), chi)
                ok = ok and not const.is_zero()
                ok = ok and all(gm.entries[i][k] == pm.entries[i][k]
                                for i in range(len(gm.row_index))
                                for k in range(len(gm.col_index)))
    _report(4, "generating function = product", ok, t0)


def test_criterion_05_hg_generating_functions():
    t0 = time.time()
    ok = True
    zs = [F(3, 2), F(5, 2), F(7, 2), F(9, 2), F(11, 2)]
    for j in range(0, 4):
        for m1 in range(-j, j + 1):
            for m2 in range(-j, j + 1):
                if (m1 - m2) % 2:
                    continue
                for z in zs:
                    s = s_norm(j, 0, m1, m2, z)
                    ok = ok and hg_entry_ct("H", j, m1, m2, z) == s
                    ok = ok and hg_entry_ct("G", j, m1, m2, z) == s
    _report(5, "[H]_0 = [G]_0 = script-S (j<=3)", ok, t0)


def test_criterion_06_casimir_scalar():
    t0 = time.time()
    ok = True
    for lam in [(F(1, 2), F(1, 3)), (F(2), F(1)), (F(5), F(3))]:
        chi = Character((0, 0), lam)
        expect = RSum.of(ExactScalar.of(hc_omega2(lam)))
        # Weyl invariance of the scalar in lambda
        for word in (["a1"], ["a2"], ["a1", "a2", "a1"]):
            ok = ok and hc_omega2(weyl_on_lambda(word, lam)) == hc_omega2(lam)
        for (j, n, _mult) in ktypes((0, 0), 4, 4):
            for m2 in m_set(j, n, (0, 0)):
                for m1 in half_range(-j, j):
                    v = WignerIndex.of(j, n, m1, m2)
                    out = omega2_action(v, chi)
                    # the diagonal must be there (absent only when the scalar is 0)
                    ok = ok and out.get(v, RSum()) == expect
                    ok = ok and all(c.is_zero() for k, c in out.items() if k != v)
    _report(6, "Casimir scalar = hc(lambda)", ok, t0)


def test_criterion_07_bracket_homomorphism(rng):
    t0 = time.time()
    ok = True
    chi = Character((0, 0), (F(7, 3), F(4, 5)))
    labels = ["H1", "H2"] + list(ALL_ROOTS)
    one = RSum.of(1)
    vecs = []
    for (j, n, _mult) in ktypes((0, 0), 2, 2):
        for m2 in m_set(j, n, (0, 0)):
            for m1 in half_range(-j, j):
                vecs.append(WignerIndex.of(j, n, m1, m2))
    for _pair in range(20):
        x, y = GMat.zero(), GMat.zero()
        for lab in rng.sample(labels, 4):
            x = x + chevalley(lab).scale(Cyc8.of(F(rng.randrange(-3, 4))))
        for lab in rng.sample(labels, 4):
            y = y + chevalley(lab).scale(Cyc8.of(F(rng.randrange(-3, 4))))
        br = bracket(x, y)
        for v in vecs:
            lhs = lc_add(
                dl_element(x, dl_element(y, {v: one}, chi), chi),
                lc_scale(dl_element(y, dl_element(x, {v: one}, chi), chi), RSum.of(-1)))
            rhs = dl_element(br, {v: one}, chi)
            if lc_add(lhs, lc_scale(rhs, RSum.of(-1))):
                ok = False
    _report(7, "[dl X, dl Y] = dl [X,Y]", ok, t0)


def test_criterion_08_wigner_layer(rng):
    t0 = time.time()
    ok = True
    done = 0
    while done < 50:                                       # jacobi_sum == jacobi_hyp
        n = rng.randrange(0, 11)
        al = F(rng.randrange(-6, 7), rng.choice([1, 2, 3]))
        be = F(rng.randrange(-6, 7), rng.choice([1, 2, 3]))
        x = F(rng.randrange(-9, 10), rng.choice([2, 3, 4, 5]))
        try:
            a = jacobi_sum(n, al, be, x)
            b = jacobi_hyp(n, al, be, x)
        except Exception:
            continue
        done += 1
        ok = ok and a == b
    for tj in range(0, 11):                                # little_d == via-Jacobi, j<=5
        j = HalfInt(tj)
        for m1 in half_range(-j, j):
            for m2 in half_range(-j, j):
                th = rng.uniform(0.1, math.pi - 0.1)
                a = little_d(j, m1, m2, th)
                b = wigner_via_jacobi(j, m1, m2, th)
                ok = ok and abs(a - b) <= 1e-12 * max(1.0, abs(a))
    for _ in range(5):                                     # unitarity/multiplicativity, j<=3
        u1 = su2_matrix(*[rng.uniform(-3, 3) for _ in range(4)])
        u2 = su2_matrix(*[rng.uniform(-3, 3) for _ in range(4)])
        for tj in range(0, 7):
            j, n = HalfInt(tj), HalfInt(tj % 2)
            d1 = wigner_D_matrix(j, n, u1)
            d2 = wigner_D_matrix(j, n, u2)
            d12 = wigner_D_matrix(j, n, u1 @ u2)
            ok = ok and np.abs(d1 @ d1.conj().T - np.eye(tj + 1)).max() < 1e-10
            ok = ok and np.abs(d1 @ d2 - d12).max() < 1e-10
    for _ in range(20):                                    # CG product expansion
        u = su2_matrix(*[rng.uniform(-3, 3) for _ in range(4)])
        ea = EulerAngles(*euler_from_u2(u))
        tj = rng.randrange(0, 7)
        m11 = HalfInt(rng.randrange(-tj, tj + 1, 2) if tj else 0)
        m12 = HalfInt(rng.randrange(-tj, tj + 1, 2) if tj else 0)
        idx1 = WignerIndex.of(HalfInt(tj), HalfInt(tj % 2), m11, m12)
        idx2 = WignerIndex.of(1, 1, rng.choice([-1, 0, 1]), rng.choice([-1, 0, 1]))
        lhs = wigner_D(idx1, ea) * wigner_D(idx2, ea)
        rhs = sum(c.to_complex() * wigner_D(t, ea)
                  for t, c in product_expand(idx1, idx2).items())
        ok = ok and abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))
    _report(8, "Wigner layer identities", ok, t0)


def test_criterion_09_iwasawa(rng):
    t0 = time.time()
    ok = True
    for simple in ("a1", "a2"):
        for t in (F(3, 4), F(5, 12), F(8, 15)):
            k, h, chi_n = iwasawa_sl2(simple, t)
            target = exp_nilpotent(chevalley("-" + simple).scale(Cyc8.of(t)))
            ok = ok and (k @ h @ chi_n == target)
        for _ in range(10):
            t = rng.uniform(-2.0, 2.0)
            k, h, chi_n = iwasawa_sl2(simple, t)
            tgt = expm(t * chevalley("-" + simple).to_numpy().real)
            ok = ok and np.abs(k @ h @ chi_n - tgt).max() < 1e-12
    _report(9, "Iwasawa reconstruction", ok, t0)


def test_criterion_10_mellin_numerics():
    t0 = time.time()
    ok = True
    for z in (1.0, 1.5, 2.0, 2.5):
        for m in (F(0), F(1, 2), F(1), F(3, 2)):
            ok = ok and mellin_numeric_check(z, m, rel_tol=1e-8)
    _report(10, "Mellin quadrature vs Q", ok, t0)


def test_criterion_11_parity_vanishing():
    t0 = time.time()
    ok = True
    for j in range(0, 5):
        for m3 in range(-j, j + 1):
            for m2 in range(-j, j + 1):
                if (2 * j + m3 - m2) % 2 == 0:
                    continue
                ok = ok and s_entry_sum(j, 0, m3, m2, F(5, 2)).is_zero()
    _report(11, "parity vanishing of S", ok, t0)


def test_zz_summary():
    print()
    for line in _REPORT:
        print(line)
    assert len(_REPORT) == 11
