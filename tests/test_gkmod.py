import functools
import gc
import hashlib
import json
import math
import random
import weakref
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from sp4ps import exact, gkmod, wigner
from sp4ps.exact import Character, ExactScalar, HalfInt, lift
from sp4ps.gkmod import (NONCOMPACT, DecompositionError, action_matrix_json, bracket_check, casimir_check,
                         check_index, chevalley_element,
                         cyc8_to_rsum, dl_element, dl_k_action, dl_p_action,
                         dl_word, dr_p_action, gmat_to_element, ktype_allowed,
                         ktype_basis, ktypes, lc_add, lc_scale, m_set,
                         omega2_action)
from sp4ps.sp4 import (ALL_ROOTS, Cyc8, GMat, chevalley, decompose_chevalley, hc_omega2, omega2_words,
                       random_element, u2_generators, u_beta)
from sp4ps.wigner import (EulerAngles, OutOfRange, WignerIndex, clebsch_gordan_j1, dl_gamma, euler_from_u2,
                          wigner_D)

CHI = Character((0, 0), (F(5, 2), F(3, 2)))


def _vectors(delta, j_max, n_max):
    """Every basis vector of the K-types with j <= j_max, |n| <= n_max."""
    return [v for (j, n, _mult) in ktypes(delta, j_max, n_max) for v in ktype_basis(j, n, delta)]


# ---------------------------------------------------------------------------
# K-types and m-sets
# ---------------------------------------------------------------------------

def test_ktypes_multiplicities():
    table = {(str(j), str(n)): mult for j, n, mult in ktypes((0, 0), 3, 3)}
    assert table[("2", "0")] == 3
    assert table[("2", "1")] == 2
    assert [str(m) for m in m_set(2, 0, (0, 0))] == ["-2", "0", "2"]
    assert [str(m) for m in m_set(2, 1, (0, 0))] == ["-1", "1"]
    assert [str(m) for m in m_set(1, 0, (1, 1))] == ["-1", "1"]
    # j = 0 K-types with odd parity are absent
    assert not m_set(0, 1, (0, 0))
    # cardinality formula for the delta1 = delta2 case
    for d in ((0, 0), (1, 1)):
        for tj in range(0, 7):
            for tn in range(-6, 7):
                if not ktype_allowed(tj, tn, d):
                    continue
                mult = len(m_set(tj, tn, d))
                if (tj - tn + d[0]) % 2 == 0:
                    assert mult == tj + 1
                else:
                    assert mult == max(tj, 0)


def test_m_set_is_the_parity_definition():
    # every 2j <= 12, |2n| <= 12 and delta: the m = -j, -j+1, ..., j with
    # n - m = delta1 and n + m = delta2 (mod 2), in order, as a new list
    for d in ((0, 0), (0, 1), (1, 0), (1, 1)):
        for tj in range(13):
            j = F(tj, 2)
            for tn in range(-12, 13):
                n = F(tn, 2)
                want = [-j + k for k in range(tj + 1)
                        if (n + j - k).denominator == 1 and (n + j - k - d[0]) % 2 == 0
                        and (n - j + k - d[1]) % 2 == 0]
                got = m_set(HalfInt(tj), HalfInt(tn), d)
                assert type(got) is list and got is not m_set(HalfInt(tj), HalfInt(tn), d)
                assert all(type(m) is HalfInt for m in got)
                assert [m.frac for m in got] == want


def test_half_integer_ktypes():
    rows = ktypes((0, 1), F(3, 2), F(3, 2))
    assert all(not j.is_integer() and not n.is_integer() for j, n, _ in rows)
    assert check_index(WignerIndex.of(F(3, 2), F(1, 2), F(1, 2), F(1, 2)), (0, 1)) in (True, False)


# ---------------------------------------------------------------------------
# exact coefficient sums
# ---------------------------------------------------------------------------

def _terms_sum(terms: dict) -> ExactScalar:
    """The ExactScalar with the given {(r, p, im): q} terms, in that order."""
    return sum((ExactScalar(q, *k) for k, q in terms.items()), ExactScalar(0))


def test_rsum():
    a = ExactScalar(F(1, 2), 2)
    b = ExactScalar(F(1, 3))
    s = a + b
    assert not s.is_zero() and len(s.terms) == 2
    with pytest.raises(ValueError):
        s.inverse()              # a sum of two radical classes is not one term
    assert (s - s).is_zero()
    p = a * a
    assert p == ExactScalar(F(1, 2)) and len(p.terms) == 1
    assert abs(s.to_complex() - (0.5 * math.sqrt(2) + 1 / 3)) < 1e-12
    # multiplication distributes over mixed classes
    t = (a + b) * (a - b)
    assert t == a * a - b * b


def test_rsum_products_and_sums():
    # one operand of every pair below takes each shortcut of __mul__:
    # radicand 1, coprime radicands, and a common factor g = gcd > 1
    x = _terms_sum({(1, 0, False): F(2, 3), (6, 0, True): F(-1, 2)})
    y = _terms_sum({(1, 0, True): F(5), (10, 1, False): F(3, 7)})
    want = {
        (1, 0, True): F(10, 3),                  # 2/3 * 5i
        (10, 1, False): F(2, 7),                 # 2/3 * 3/7 sqrt10 pi^(1/2)
        (6, 0, False): F(5, 2),                  # -i/2 sqrt6 * 5i
        (15, 1, True): F(-3, 7),                 # -i/2 sqrt6 * 3/7 sqrt10: g = 2
    }
    assert (x * y).terms == want and (y * x).terms == want
    assert (x * 3).terms == {(1, 0, False): F(2), (6, 0, True): F(-3, 2)}
    assert (3 * x) == x * 3 and (1 + x) == x + 1
    assert ExactScalar.__rmul__ is ExactScalar.__mul__ and ExactScalar.__radd__ is ExactScalar.__add__
    # sums cancel term by term; a cancelled key that comes back goes last
    s = x + _terms_sum({(6, 0, True): F(1, 2), (2, 0, False): F(1)})
    assert list(s.terms) == [(1, 0, False), (2, 0, False)]
    assert list((s + _terms_sum({(6, 0, True): F(1)})).terms)[-1] == (6, 0, True)
    assert not (x - x) and (x - x).is_zero() and x
    assert _terms_sum({(1, 0, False): F(0)}).is_zero()


def test_cyc8_to_rsum():
    z = Cyc8(F(1, 2), F(1, 3), F(-2), F(1, 3))
    r = cyc8_to_rsum(z)
    assert isinstance(r, ExactScalar)
    assert abs(r.to_complex() - z.to_complex()) < 1e-12


def test_benchmark_names_of_the_coefficient_type():
    # the benchmark reads gkmod.RSum, counts its __mul__/__rmul__ and
    # __add__/__radd__ as one method each, and reads .terms
    assert gkmod.RSum is ExactScalar
    assert ExactScalar.__rmul__ is ExactScalar.__mul__ and ExactScalar.__radd__ is ExactScalar.__add__
    v = gkmod.RSum.of(1) + ExactScalar(F(-1, 2), 6, 1, True)
    assert v.terms == {(1, 0, False): F(1), (6, 1, True): F(-1, 2)}
    coefs = list(dl_p_action("b2", WignerIndex.of(1, 1, 0, 1), CHI).values())
    assert coefs
    for c in coefs + [v, cyc8_to_rsum(Cyc8(F(1), F(2), F(3), F(4)))]:
        for key, q in c.terms.items():
            r, p, im = key
            assert (type(r), type(p), type(im), type(q)) == (int, int, bool, F) and q


# ---------------------------------------------------------------------------
# the p_C action
# ---------------------------------------------------------------------------

def test_dl_p_on_trivial_ktype():
    v = WignerIndex.of(0, 0, 0, 0)
    l1, l2 = CHI.lam
    for beta in ("b2", "b1+b2", "2b1+b2"):
        out = dl_p_action(beta, v, CHI)
        mb = NONCOMPACT[beta][0]
        want = {
            WignerIndex.of(1, 1, mb, -1): ExactScalar(F(1, 2) * (l2 + 1), 2, 0, True),
            WignerIndex.of(1, 1, mb, 1): ExactScalar(F(1, 2) * (l1 + 2), 2, 0, True),
        }
        assert out == want, (beta, out)


def test_dr_p_eigenvalues():
    # dr(u_{+-(2b1+b2)}) acts by i(-+n -+ m2 - (lambda1+2))/sqrt2
    l1, l2 = CHI.lam
    for (j, n, m1, m2) in [(1, 1, 0, 1), (2, 0, 1, 0), (2, 2, -1, 2)]:
        v = WignerIndex.of(j, n, m1, m2)
        up = dr_p_action("2b1+b2", v, CHI)
        dn = dr_p_action("-2b1-b2", v, CHI)
        assert up == {v: ExactScalar(F(1, 2) * (-n - m2 - (l1 + 2)), 2, 0, True)}
        assert dn == {v: ExactScalar(F(1, 2) * (n + m2 - (l1 + 2)), 2, 0, True)}
        b2 = dr_p_action("b2", v, CHI)
        assert b2 == {v: ExactScalar(F(1, 2) * (-n + m2 - (l2 + 1)), 2, 0, True)}


def test_dl_structure():
    # u_{b1+b2} shifts n by +1 and m1 by m_beta = 0; K-types stay within
    # j0 in {-1,0,1}; outputs satisfy the same delta parity
    v = WignerIndex.of(2, 0, 1, 0)
    out = dl_p_action("b1+b2", v, CHI)
    assert out
    for tgt in out:
        assert tgt.n.as_int() == 1
        assert tgt.m1 == v.m1
        assert abs(tgt.j.as_int() - 2) <= 1
        assert check_index(tgt, CHI.delta)


def test_dl_word_empty_and_errors():
    v = WignerIndex.of(1, 1, 0, 1)
    assert dl_word([], v, CHI) == {v: ExactScalar(1)}
    with pytest.raises(DecompositionError):
        gmat_to_element(GMat.build([[1, 0, 0, 0]] + [[0] * 4] * 3))
    with pytest.raises(DecompositionError):
        dl_word(["nonsense"], v, CHI)


def test_catalog_decomposition_against_matrices():
    # the fixed Chevalley -> {u_beta, U_i} table reproduces the 4x4 matrices
    U = u2_generators()
    mats = {("U", i): U[i] for i in range(4)}
    for (mb, nb) in ((1, 1), (-1, -1), (-1, 1), (1, -1), (0, 1), (0, -1)):
        mats[("u", mb, nb)] = u_beta(mb, nb)
    for name in ("H1", "H2") + ALL_ROOTS:
        elem = chevalley_element(name)
        acc = GMat.zero()
        for lab, coef in elem.items():
            ((r, _p, im), q), = coef.terms.items()
            if r == 2:
                c = Cyc8(0, q, 0, -q)          # q*sqrt2
            else:
                c = Cyc8(q)
            if im:
                c = c * Cyc8(0, 0, 1, 0)
            acc = acc + mats[lab].scale(c)
        assert acc == chevalley(name), name
    # and gmat_to_element inverts it
    for name in ("H1", "a1", "-a2", "a1+a2"):
        assert gmat_to_element(chevalley(name)) == chevalley_element(name)
    el = gmat_to_element(u_beta(1, 1))
    assert el == {("u", 1, 1): ExactScalar(1)}


def test_bracket_homomorphism(rng):
    vecs = [WignerIndex.of(*t) for t in [(0, 0, 0, 0), (1, 1, 0, 1), (2, 0, 1, 0)]]
    for _ in range(20):
        x, y = random_element(rng), random_element(rng)
        assert bracket_check(x, y, vecs, CHI)


def test_casimir_scalar_small():
    # at lambda = (2,1) the scalar is 0, so an absent diagonal is right; at
    # (3,1/2) it is 17/48, so an empty output fails
    for lam, scalar in (((F(2), F(1)), F(0)), ((F(3), F(1, 2)), F(17, 48))):
        assert hc_omega2(lam) == scalar
        assert casimir_check(_vectors((0, 0), 2, 2), Character((0, 0), lam))


def test_casimir_mixed_delta():
    # the action tables never reference delta, so the scalar holds on the
    # half-integer-spin module too
    v = WignerIndex.of(F(3, 2), F(1, 2), F(1, 2), F(1, 2))
    assert check_index(v, (0, 1))
    assert casimir_check([v], Character((0, 1), (F(3), F(2))))   # scalar 2/3


def _random_action(tag):
    """A seeded, sparse, random exact map {basis vector: ExactScalar} per (generator,
    vector), the same on every call.  It is not a representation, so the
    Casimir built from it acts by no scalar."""
    @functools.lru_cache(maxsize=None)
    def action(gen, v):
        rng = random.Random("%s:%s:%s" % (tag, gen, (v.j.twice, v.n.twice, v.m1.twice, v.m2.twice)))
        out = {}
        for _ in range(rng.randrange(1, 4)):
            j = rng.randrange(0, 3)
            w = WignerIndex.of(j, rng.randrange(-2, 3), rng.randrange(-j, j + 1),
                               rng.randrange(-j, j + 1))
            q = F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randrange(1, 4))
            c = ExactScalar(q, rng.choice([1, 2]), 0, rng.random() < 0.5)
            out[w] = out.get(w, ExactScalar(0)) + c
        return {w: c for w, c in out.items() if c}
    return action


def test_omega2_form_matches_words_in_free_algebra(monkeypatch):
    # with dl of every catalog label replaced by an arbitrary linear map, the
    # collected form must still equal the sum of the Casimir's words letter
    # by letter: only the expansion of the words is tested, no relation of g
    p_map, k_map = _random_action("p"), _random_action("k")

    # dl of a catalog label is computed in one place, the row builder of the
    # character's table, so that is what is replaced; the tables are cleared
    # so that no row built before (or here) is read by another test
    def fake_row(table, lab, v):
        action = p_map if lab[0] == "u" else k_map
        return tuple((table.id(w), table.arith.lift(c)) for w, c in action(lab, v).items())

    monkeypatch.setattr(gkmod, "_dl_row", fake_row)
    gkmod._table.cache_clear()
    try:
        vecs = _vectors((0, 0), 2, 2)
        assert len(vecs) == 89
        for v in vecs:
            want = {}
            for coef, word in omega2_words():
                want = lc_add(want, lc_scale(dl_word(word, v, CHI), ExactScalar.of(coef)))
            got = omega2_action(v, CHI)
            assert got == want, v
            assert set(got) - {v}, v
    finally:
        gkmod._table.cache_clear()


@pytest.mark.parametrize("delta, lam", [((0, 0), (F(5, 2), F(1, 3))),
                                        ((0, 1), (F(11, 5), F(2, 9)))])
def test_casimir_float_path_matches_exact(delta, lam):
    chi_e = Character(delta, lam)
    chi_f = Character(delta, tuple(complex(x) for x in lam))
    tol = 1e-12 * max(1.0, abs(float(hc_omega2(lam))))
    for v in _vectors(delta, 2, 1):
        exact, floaty = omega2_action(v, chi_e), omega2_action(v, chi_f)
        assert exact.get(v)
        for k in set(exact) | set(floaty):
            assert abs(floaty.get(k, 0) - exact.get(k, ExactScalar(0)).to_complex()) <= tol, (v, k)


# ---------------------------------------------------------------------------
# the summation kernel against a reference made of lc_add, lc_scale and
# ring operations (no mul_acc, no collected Casimir form)
# ---------------------------------------------------------------------------

_ORACLE_CHARS = [Character((0, 0), (F(7, 3), F(4, 5))),
                 Character((0, 1), (F(11, 5), F(2, 9))),
                 Character((1, 1), (F(9, 4), F(-5, 7))),
                 Character((0, 0), (complex(2.3, 0.7), complex(0.4, -0.2)))]
_CHEVALLEY_LABELS = ("H1", "H2") + ALL_ROOTS


def _ref_dl_label(lab, v, chi):
    """dl of a catalog label from the public actions, in chi's arithmetic."""
    if lab[0] == "u":
        return dl_p_action(lab, v, chi)
    return {k: lift(c, chi.lam[0]) for k, c in dl_k_action("U%d" % lab[1], v).items()}


def _ref_dl_element(elem, lc, chi):
    like = chi.lam[0]
    out = {}
    for v, cv in lc.items():
        for lab, ce in elem.items():
            out = lc_add(out, lc_scale(_ref_dl_label(lab, v, chi), lift(ce, like) * cv))
    return out


def _ref_omega2(v, chi):
    like = chi.lam[0]
    out = {}
    for coef, word in omega2_words():
        lc = {v: lift(ExactScalar(1), like)}
        for letter in reversed(word):
            lc = _ref_dl_element(chevalley_element(letter), lc, chi)
        out = lc_add(out, lc_scale(lc, lift(ExactScalar.of(coef), like)))
    return out


def _assert_canonical(lc):
    """Nonzero coefficients whose terms are nonzero, reduced Fractions."""
    for c in lc.values():
        assert c.terms
        for q in c.terms.values():
            assert type(q) is F and q and q.denominator > 0
            assert math.gcd(q.numerator, q.denominator) == 1


def _assert_matches_reference(got, ref, chi):
    """The same items in the same order at rational lambda; within 1e-12 of
    the largest reference coefficient at complex lambda."""
    if chi.exact:
        assert list(got.items()) == list(ref.items())
        _assert_canonical(got)
        return
    tol = 1e-12 * max(abs(c) for c in ref.values())
    for k in got.keys() | ref.keys():
        assert abs(got.get(k, 0) - ref.get(k, 0)) <= tol, k


_dense = st.lists(st.sampled_from((-3, -2, -1, 1, 2, 3)), min_size=10, max_size=10)


@settings(max_examples=40, deadline=None)
@given(chi=st.sampled_from(_ORACLE_CHARS), xc=_dense, yc=_dense, pick=st.integers(0, 10 ** 6))
def test_exact_kernel_matches_reference(chi, xc, yc, pick):
    vecs = _vectors(chi.delta, 1, 1)
    v = vecs[pick % len(vecs)]
    elems = []
    for coefs in (xc, yc):
        g = _chevalley_sum(coefs)
        got = gmat_to_element(g)
        ref = {}
        for lab, c in zip(_CHEVALLEY_LABELS, coefs):
            ref = lc_add(ref, lc_scale(chevalley_element(lab), ExactScalar(c)))
        assert got == ref
        ref = {}           # the same sum in the order the decomposition reads
        for lab, c in decompose_chevalley(g).items():
            ref = lc_add(ref, lc_scale(chevalley_element(lab), cyc8_to_rsum(c)))
        assert list(got.items()) == list(ref.items())
        elems.append(got)
    x, y = elems
    one = {v: lift(ExactScalar(1), chi.lam[0])}
    inner = dl_element(y, one, chi)
    _assert_matches_reference(inner, _ref_dl_element(y, one, chi), chi)
    nested = dl_element(x, inner, chi)
    _assert_matches_reference(nested, _ref_dl_element(x, inner, chi), chi)
    _assert_matches_reference(omega2_action(v, chi), _ref_omega2(v, chi), chi)


def test_returned_actions_are_copies():
    v = WignerIndex.of(1, 1, 0, 1)
    for call in (lambda: dl_p_action("b2", v, CHI), lambda: dl_k_action("U1", v),
                 lambda: dl_k_action("U0", v)):
        first = call()
        want = list(first.items())
        assert want
        first.clear()
        first[v] = ExactScalar(99)
        assert list(call().items()) == want


def test_tables_are_kept_for_the_last_characters_only():
    # the tables are an LRU of fixed size keyed by the character: using more
    # characters than it keeps leaves only the last ones alive
    gkmod._table.cache_clear()
    v = WignerIndex.of(1, 1, 0, 1)
    refs = []
    for k in range(gkmod._TABLES_KEPT + 3):
        chi = Character((0, 0), (F(2 * k + 5, 2), F(1, 3)))
        assert omega2_action(v, chi)
        refs.append(weakref.ref(gkmod._table(chi)))
    gc.collect()
    alive = [r() is not None for r in refs]
    assert alive == [False] * 3 + [True] * gkmod._TABLES_KEPT


def test_bracket_check_decomposes_each_matrix_once(monkeypatch):
    calls = []
    real = gkmod.decompose_chevalley
    monkeypatch.setattr(gkmod, "decompose_chevalley", lambda x: calls.append(x) or real(x))
    x = _chevalley_sum((1, -2, 3, -1, 2, -3, 1, 2, -1, 3))
    y = _chevalley_sum((-3, 1, 2, 1, -1, -2, 3, -1, 2, 1))
    vecs = _vectors((0, 0), 1, 1)
    assert bracket_check(x, y, vecs, CHI)
    assert len(calls) == 3


# ---------------------------------------------------------------------------
# numeric principal-series oracle (pins the corrected sign conventions)
# ---------------------------------------------------------------------------

_P = np.zeros((4, 4))
_P[0, 0] = _P[1, 1] = 1
_P[2, 3] = _P[3, 2] = 1


def _iwasawa_num(g):
    s = g.T @ g
    sp = _P @ s @ _P.T
    ell = np.eye(4)
    work = sp.copy()
    d = np.zeros(4)
    for i in range(4):
        d[i] = work[i, i]
        ell[i + 1:, i] = work[i + 1:, i] / d[i]
        work[i + 1:, i + 1:] -= np.outer(ell[i + 1:, i], ell[i + 1:, i]) * d[i]
    nmat = _P.T @ ell.T @ _P
    a = np.diag(np.sqrt(np.diag(_P.T @ np.diag(d) @ _P)))
    return g @ np.linalg.inv(a @ nmat), a, nmat


def _wig_k4(v: WignerIndex, k4):
    u = k4[:2, :2] + 1j * k4[:2, 2:]
    return wigner_D(v, EulerAngles(*euler_from_u2(u)))


def _f_ps(v: WignerIndex, lam, g):
    k, a, _ = _iwasawa_num(g)
    return a[0, 0] ** (-(lam[0] + 2)) * a[1, 1] ** (-(lam[1] + 1)) * _wig_k4(v, k)


def test_dl_p_matches_principal_series_derivative(rng):
    lam = (1.7, 0.9)
    chi = Character((0, 0), (F(17, 10), F(9, 10)))
    U = [m.to_numpy().real for m in u2_generators()]

    def rand_k():
        return expm(rng.uniform(-1, 1) * 2 * U[0]) @ expm(rng.uniform(-1, 1) * 2 * U[1]) \
            @ expm(rng.uniform(-1, 1) * 2 * U[2]) @ expm(rng.uniform(-1, 1) * 2 * U[3])

    h = 1e-6
    for beta in ("b2", "b1+b2", "2b1+b2", "-b2", "-b1-b2", "-2b1-b2"):
        u = u_beta(*NONCOMPACT[beta]).to_numpy()
        for (j, n, m1, m2) in [(1, 1, 0, 1), (2, 0, 1, 0)]:
            v = WignerIndex.of(j, n, m1, m2)
            k0 = rand_k()
            num = 0j
            for part, w in ((u.real, 1.0), (u.imag, 1j)):
                num += w * (_f_ps(v, lam, expm(-h * part) @ k0)
                            - _f_ps(v, lam, expm(h * part) @ k0)) / (2 * h)
            sym = sum(c.to_complex() * _wig_k4(t, k0)
                      for t, c in dl_p_action(beta, v, chi).items())
            assert abs(num - sym) < 5e-7, (beta, v)


def test_dl_k_matches_numeric(rng):
    U = [m.to_numpy().real for m in u2_generators()]
    k0 = expm(0.3 * 2 * U[1]) @ expm(-0.7 * 2 * U[2]) @ expm(0.2 * 2 * U[3])
    h = 1e-6
    for i in range(4):
        for (j, n, m1, m2) in [(1, 1, 0, 1), (2, 1, 1, 0)]:
            v = WignerIndex.of(j, n, m1, m2)
            num = (_wig_k4(v, expm(-h * U[i]) @ k0) - _wig_k4(v, expm(h * U[i]) @ k0)) / (2 * h)
            sym = sum(c.to_complex() * _wig_k4(t, k0)
                      for t, c in dl_k_action("U%d" % i, v).items())
            assert abs(num - sym) < 1e-8


# ---------------------------------------------------------------------------
# float path and export
# ---------------------------------------------------------------------------

def test_dl_p_float_path_matches_exact():
    chi_e = Character((0, 0), (F(5, 2), F(3, 2)))
    chi_f = Character((0, 0), (2.5 + 0j, 1.5 + 0j))
    # equal values, so only the character's exact field keeps the two apart
    # in the action cache and the tables, whichever is computed first
    assert chi_e != chi_f
    v = WignerIndex.of(2, 1, 1, 1)
    for first, second in ((chi_e, chi_f), (chi_f, chi_e)):
        gkmod._dl_p_cached.cache_clear()
        gkmod._table.cache_clear()
        out = {chi.exact: dl_p_action("b2", v, chi) for chi in (first, second)}
        exact, floaty = out[True], out[False]
        assert all(type(c) is ExactScalar for c in exact.values())
        assert all(type(c) is complex for c in floaty.values())
        assert set(exact) == set(floaty)
        for k in exact:
            assert abs(exact[k].to_complex() - floaty[k]) < 1e-12


def test_dl_k_action_rejects_a_gamma_name():
    # the gamma basis is wigner.dl_gamma's; dl_k_action takes U0..U3
    with pytest.raises(ValueError, match="'g\\+'"):
        dl_k_action("g+", WignerIndex.of(1, 1, 0, 1))


# ---------------------------------------------------------------------------
# the row paths: closed-form compact rows, u-row skeletons, the key memo
# ---------------------------------------------------------------------------

def _all_vectors(tj_max):
    """Every Wigner index with 2j <= tj_max, n of j's parity with |n| <= 1
    (1/2, 3/2 at half-odd j), and every m1, m2."""
    out = []
    for tj in range(tj_max + 1):
        s = tj % 2
        for tn in (s - 2, s, s + 2):
            for tm1 in range(-tj, tj + 1, 2):
                for tm2 in range(-tj, tj + 1, 2):
                    out.append(WignerIndex(*map(HalfInt, (tj, tn, tm1, tm2))))
    return out


def _dl_gamma_composition(i, v):
    """dl(U_i) v from wigner.dl_gamma: U0 = g0, U3 = g3, U1 = (g+ + g-)/2,
    U2 = (g+ - g-)/(2i), summed in ExactScalar arithmetic."""
    if i in (0, 3):
        return dl_gamma("g0" if i == 0 else "g3", v)
    half = ExactScalar(F(1, 2))
    cp, cm = (half, half) if i == 1 else (ExactScalar(F(-1, 2), 1, 0, True), ExactScalar(F(1, 2), 1, 0, True))
    out = {}
    for c, act in ((cp, dl_gamma("g+", v)), (cm, dl_gamma("g-", v))):
        for k, val in act.items():
            out[k] = out[k] + c * val if k in out else c * val
    return {k: c for k, c in out.items() if c}


def test_compact_rows_match_the_dl_gamma_composition():
    # every vector with j <= 3 (and |n| <= 3), each U_i: the same targets in
    # the same order, with equal ExactScalar values
    gkmod._dl_k_cached.cache_clear()
    vecs = [WignerIndex(*map(HalfInt, (tj, tn, tm1, tm2))) for tj in range(7) for tn in range(tj % 2 - 6, 7, 2)
            for tm1 in range(-tj, tj + 1, 2) for tm2 in range(-tj, tj + 1, 2)]
    assert len(vecs) == 924
    for v in vecs:
        for i in range(4):
            want = list(_dl_gamma_composition(i, v).items())
            assert list(gkmod._dl_k_cached(("U", i), v).items()) == want, (i, v)
            assert list(dl_k_action("U%d" % i, v).items()) == want


def _cg_expansion(lab, v, chi):
    """dl(u_beta) v as the Clebsch-Gordan expansion of dl(u_beta) =
    dr(-Ad(k^-1) u_beta), written out here: for each dr(u_nu) term (m_nu,
    exact factor, affine factor, m2 shift) and each j0, the product of two
    clebsch_gordan_j1 values times -factor * affine, added term by term
    (ExactScalar at rational lambda, complex at complex lambda)."""
    _, m_beta, n_beta = lab
    l1, l2 = chi.lam
    j, n, m1, m2 = (x.frac for x in (v.j, v.n, v.m1, v.m2))
    i_over_sqrt2 = ExactScalar(F(1, 2), 2, 0, True)

    def ladder(m):      # -i sqrt((j - m)(j + m + 1))
        return -ExactScalar.i_power(1) * ExactScalar.sqrt_rational((j - m) * (j + m + 1))

    if n_beta == 1:
        terms = [(-1, i_over_sqrt2, (m2 - n) - (l2 + 1), 0), (1, i_over_sqrt2, (-n - m2) - (l1 + 2), 0),
                 (0, ladder(m2), 1, 1)]
    else:
        terms = [(1, i_over_sqrt2, (n - m2) - (l2 + 1), 0), (-1, i_over_sqrt2, (n + m2) - (l1 + 2), 0),
                 (0, ladder(-m2), 1, -1)]
    out = {}
    for m_nu, factor, affine, shift in terms:
        coef = -(factor * affine) if chi.exact else -factor.to_complex() * affine
        m2p = m2 + shift
        if not coef or abs(m2p) > j:
            continue
        for j0 in (-1, 0, 1):
            try:
                cg = clebsch_gordan_j1(v.j, v.m1, m_beta, j0) * clebsch_gordan_j1(v.j, HalfInt.of(m2p), m_nu, j0)
            except OutOfRange:
                continue
            if not cg:
                continue
            term = cg * coef if chi.exact else cg.to_complex() * coef
            k = WignerIndex.of(v.j + j0, v.n + n_beta, v.m1 + m_beta, HalfInt.of(m2p + m_nu))
            if k in out:
                total = out[k] + term
                if total:
                    out[k] = total
                else:
                    del out[k]
            else:
                out[k] = term
    return out


@pytest.mark.parametrize("chi", [Character((0, 0), (F(7, 3), F(-4, 5))),
                                 Character((1, 1), (2.3 + 0.7j, 0.4 - 0.2j))], ids=["exact", "complex"])
def test_skeleton_rows_match_a_cg_expansion(chi):
    # rows built from cold skeletons, for all six u-labels on every vector
    # with j <= 2: the same targets in the same order and the same values,
    # complex ones by repr (so the same bits)
    for cache in (gkmod._table, gkmod._dl_p_cached, gkmod._skeleton, exact.value_pair):
        cache.cache_clear()
    vecs = _all_vectors(4)
    for lab in gkmod._LABELS[:6]:
        for v in vecs:
            got, want = list(dl_p_action(lab, v, chi).items()), list(_cg_expansion(lab, v, chi).items())
            if chi.exact:
                assert got == want, (lab, v)
            else:
                assert repr(got) == repr(want), (lab, v)
    # one skeleton per (label, j, m1, m2), shared by the three values of n
    skeletons = gkmod._skeleton.cache_info()
    assert skeletons.misses == 6 * len(vecs) // 3
    assert skeletons.hits == 2 * skeletons.misses


def test_key_product_memo_matches_the_rule(rng):
    # every pair of radical keys multiplied in a cold round of the module
    # benchmark's windows (Casimir at four characters, brackets of dense
    # pairs): the memo holds _radical_product's value, which multiplies the
    # two monomials numerically
    for cache in (gkmod._table, gkmod._dl_p_cached, gkmod._skeleton, exact.value_pair, gkmod._cg):
        cache.cache_clear()
    exact._KEY_PRODUCTS.clear()
    for delta, lam, j_max, n_max in (((0, 0), (F(5, 2), F(1, 3)), 2, 1), ((1, 1), (F(9, 4), F(-5, 7)), 2, 1),
                                     ((0, 1), (F(11, 5), F(2, 9)), F(3, 2), F(3, 2)),
                                     ((0, 0), (2.3 + 0.7j, 0.4 - 0.2j), 2, 1)):
        chi = Character(delta, lam)
        for v in _vectors(delta, j_max, n_max):
            omega2_action(v, chi)
    chi = Character((0, 0), (F(7, 3), F(4, 5)))
    vecs = [ktype_basis(j, n, chi.delta)[0] for (j, n, _mult) in ktypes(chi.delta, 2, 1)]
    for _ in range(6):
        x, y = (_chevalley_sum([rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(10)]) for _ in range(2))
        assert bracket_check(x, y, vecs, chi)
    seen = dict(exact._KEY_PRODUCTS)
    assert 16 <= len(seen) < exact._KEY_PRODUCTS_KEPT

    def value(key):
        r, p, im = key
        return math.sqrt(r) * math.pi ** (p / 2) * (1j if im else 1)

    for (k1, k2), (key, f) in seen.items():
        assert (key, f) == exact._radical_product(k1, k2)
        assert abs(value(k1) * value(k2) - f * value(key)) < 1e-12 * abs(value(k1) * value(k2))


def test_key_product_memo_empties_when_full(monkeypatch):
    monkeypatch.setattr(exact, "_KEY_PRODUCTS_KEPT", 3)
    exact._KEY_PRODUCTS.clear()
    keys = [(r, 0, im) for r in (1, 2, 3, 6) for im in (False, True)]
    for k1 in keys:
        for k2 in keys:
            assert exact._key_product(k1, k2) == exact._radical_product(k1, k2)
            assert len(exact._KEY_PRODUCTS) <= 3
    exact._KEY_PRODUCTS.clear()


def test_lambda_free_caches_are_bounded():
    # fixed sizes, each above what verify --deep reads at delta (0,0) and
    # seed 7 (shown beside it), so that no entry is evicted there
    for cache, size, deep in ((gkmod._cg, gkmod._CG_KEPT, 278), (gkmod._ladder, gkmod._LADDER_KEPT, 36),
                              (gkmod._dl_k_cached, gkmod._DL_K_KEPT, 6060),
                              (gkmod._skeleton, gkmod._SKELETONS_KEPT, 1584),
                              (exact.value_pair, exact._PAIRS_KEPT, 776),
                              (gkmod._half_radical, gkmod._DL_K_KEPT, 45),
                              (clebsch_gordan_j1, wigner._CG_KEPT, 315),
                              (wigner.c_factor, wigner._C_FACTORS_KEPT, 25)):
        assert cache.cache_info().maxsize == size > deep
    assert exact._KEY_PRODUCTS_KEPT > 1516


# SHA-256 of the module-layer outputs, recorded before the hot path was
# rewritten: [(str(k), repr(c)) for k, c in out.items()] per basis vector of
# j <= 1, |n| <= 1, in dict order, so that the values, the float bits and the
# key order are all pinned.  "nested" is dl(X) dl(Y) v for two fixed dense
# matrices X, Y.  The float Casimir digest was recorded again twice, each
# time because the floats are added in another order (the exact digests did
# not change): when the Casimir moved to its collected form, and when the
# float path moved onto the exact path's summation kernel, which sums the
# whole Casimir in one accumulator (the values moved by at most 1.8e-15).
MODULE_CHARS = {
    "00": Character((0, 0), (F(5, 2), F(1, 3))),
    "01": Character((0, 1), (F(11, 5), F(2, 9))),
    "float": Character((0, 0), (complex(2.3, 0.7), complex(0.4, -0.2))),
}
MODULE_DIGESTS = {
    ("00", "omega2"): "a7ba8cbb6ba38bff8a16c72f09865931a4cfcb13cfd993e2e95d9bdc24c0759f",
    ("00", "nested"): "b98b4c468513494304b0d4681a452486a2ac14911ce4334c2ea23a356db14359",
    ("01", "omega2"): "bb7e06ee26efbef0090dce36e09935e880d44d89996e6bcf9f0a91478e1043ec",
    ("01", "nested"): "c2828b1c30e3a6818045e7cf4af5c0256c81d3bf109ced837e3c8b8803affcf1",
    ("float", "omega2"): "d71fa3641d86283b015cde12d053862d92d8a2b27fcc5a7a007e99a33c33fcce",
    ("float", "nested"): "97be0102b37d64dceb01d9924978f3a6e6bfff5d053ef74fd6ff90706a40615d",
}


def _chevalley_sum(coefs):
    x = GMat.zero()
    for lab, c in zip(_CHEVALLEY_LABELS, coefs):
        x = x + chevalley(lab).scale(c)
    return x


def _lc_digest(outs):
    h = hashlib.sha256()
    for out in outs:
        h.update(repr([(str(k), repr(c)) for k, c in out.items()]).encode())
    return h.hexdigest()


def test_module_layer_outputs_pinned():
    x = _chevalley_sum((1, -2, 3, -1, 2, -3, 1, 2, -1, 3))
    y = _chevalley_sum((-3, 1, 2, 1, -1, -2, 3, -1, 2, 1))
    got = {}
    for name, chi in MODULE_CHARS.items():
        vecs = _vectors(chi.delta, 1, 1)
        one = ExactScalar(1) if chi.exact else 1 + 0j
        got[(name, "omega2")] = _lc_digest(omega2_action(v, chi) for v in vecs)
        got[(name, "nested")] = _lc_digest(
            dl_element(x, dl_element(y, {v: one}, chi), chi) for v in vecs)
    assert got == MODULE_DIGESTS


def test_action_matrix_json():
    rows = action_matrix_json("b2", (0, 0), (F(5, 2), F(3, 2)), 1, 1)
    assert rows
    for r in rows:
        assert set(r) == {"from", "to", "coeff"}
        from sp4ps.exact import parse_scalar
        parse_scalar(r["coeff"])     # round-trips
    doc = json.dumps(rows)
    assert json.loads(doc) == rows
