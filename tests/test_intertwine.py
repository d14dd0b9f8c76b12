import math
import random
from fractions import Fraction as F

import pytest

from sp4ps.exact import (Character, ExactScalar, HalfInt, PoleError, UnsupportedExactInput,
                         gamma_half, half_range, parse_scalar)
from sp4ps.gkmod import NONCOMPACT, dr_p_action, ktypes, m_set
from sp4ps import exact, intertwine, wigner
from sp4ps.intertwine import (BRAID_WORD, LONG_WORD, BlockMatrix, DegenerateBlock,
                              QuadratureError, block_from_json, block_to_csv, block_to_json,
                              braid_check, closed_form_check, genfun_check, genfun_vs_product,
                              hg_check, inversion_check, long_operator_genfun,
                              long_operator_product, m_entry_genfun,
                              mellin_numeric_check, mn_inverse_check, mn_matrices,
                              q_factor, q_ratio, s_entry_3f2, s_entry_sum, s_norm,
                              simple_operator, t_norm, word_product, word_stages)
from sp4ps.wigner import WignerIndex, little_d

CHI = Character((0, 0), (F(9, 2), F(5, 2)))


# ---------------------------------------------------------------------------
# Q
# ---------------------------------------------------------------------------

def test_q_factor_values():
    assert q_factor(F(1), 0) == ExactScalar(1, 1, 2)          # pi
    assert q_factor(F(3, 2), F(1, 2)) == ExactScalar(F(1, 2), 1, 2)
    assert q_factor(F(1), 1) == ExactScalar(0)                # denominator pole wins
    with pytest.raises(PoleError):
        q_factor(F(1, 2), 5)
    # equal-order pole cancellation (directional limit)
    assert q_factor(F(0), 1) == ExactScalar(2, 1, 2)          # 2 pi
    # Legendre duplication: Q(z,0) = sqrt(pi) Gamma(z-1/2)/Gamma(z)
    for tz in (3, 5, 7, 9, 11):
        z = F(tz, 2)
        assert q_factor(z, 0) == ExactScalar(1, 1, 1) * gamma_half(z - F(1, 2)) / gamma_half(z)
    # float path agrees
    v = q_factor(2.25 + 0j, 1.0)
    assert abs(v - math.pi * 2 ** (2 - 4.5) * math.gamma(3.5) / (math.gamma(3.25) * math.gamma(1.25))) < 1e-12


def test_float_path_raises_at_a_numerator_pole():
    # Q(1/2, 0) has an uncancelled Gamma(2z-1) pole: the float path raises
    # the exact path's error rather than returning NaN
    for call in (lambda z: q_factor(z, 0), lambda z: s_entry_sum(0, 0, 0, 0, z)):
        for z in (F(1, 2), 0.5 + 0j):
            with pytest.raises(PoleError, match=r"uncancelled Gamma\(2z-1\) pole"):
                call(z)


def test_q_ratio():
    assert q_ratio(F(7, 3), HalfInt.of(0)) == ExactScalar(1)
    assert q_ratio(F(7, 3), HalfInt.of(2)) == q_ratio(F(7, 3), HalfInt.of(-2))
    assert q_ratio(F(2), HalfInt.of(2)) == ExactScalar(0)     # function zero, not a pole
    with pytest.raises(PoleError):
        q_ratio(F(-1), HalfInt.of(2))
    # half-odd m needs half-integer z: elsewhere the value is finite but has
    # no exact form here, which is not a pole
    assert q_ratio(F(5, 2), HalfInt.of(F(1, 2))) == \
        gamma_half(F(5, 2)) ** 2 / (gamma_half(3) * gamma_half(2))
    with pytest.raises(UnsupportedExactInput):
        q_ratio(F(7, 3), HalfInt.of(F(1, 2)))
    # complex z takes the same formula: Pochhammers for integer m (with the
    # same poles), reciprocal Gammas for half-odd m (a denominator pole is 0)
    for z, m in ((F(7, 3), 2), (F(-5, 2), 1), (F(2), 2), (F(7, 2), F(1, 2)), (F(3, 2), F(3, 2))):
        want = q_ratio(z, m).to_complex()
        assert abs(q_ratio(complex(z), m) - want) <= 1e-12 * max(1.0, abs(want))
    with pytest.raises(PoleError):
        q_ratio(complex(-1), 2)


def test_t_norm():
    assert t_norm(3, 3, F(9, 7)) == ExactScalar(1)
    assert t_norm(2, 0, F(3)) == ExactScalar(F(-2, 3))        # -(z-1)/z
    assert t_norm(2, 0, F(1)) == ExactScalar(0)               # meromorphic zero
    with pytest.raises(PoleError):
        t_norm(2, 0, F(0))
    # delta=(1,1)-style half-odd exponent at half-integer argument
    v = t_norm(0, 1, F(7, 2))
    assert v == ExactScalar.i_power(1) * gamma_half(F(7, 2)) ** 2 / (gamma_half(4) * gamma_half(3))


def test_memo_keys_keep_exact_and_complex_apart():
    # F(7, 2) == 3.5 + 0j, and both hash alike: a memo that shared one slot
    # between them would hand a complex run an exact value, or the reverse
    for first, second in ((F(7, 2), 3.5 + 0j), (3.5 + 0j, F(7, 2))):
        q_ratio.cache_clear()
        q_factor.cache_clear()
        for z in (first, second):
            want = ExactScalar if isinstance(z, F) else complex
            assert type(q_factor(z, HalfInt(1))) is want
            assert type(q_ratio(z, HalfInt(2))) is want
            assert type(q_ratio(z, F(1, 2))) is want
            assert type(t_norm(0, 2, z)) is want
            assert type(t_norm(1, 2, z)) is want


# ---------------------------------------------------------------------------
# M, N
# ---------------------------------------------------------------------------

def test_mn_inverse_and_genfun_oracle():
    for tj in range(0, 9):       # j <= 4 including half-integers
        j = HalfInt(tj)
        assert mn_inverse_check(j)
        M, _N = mn_matrices(j)
        for m3 in half_range(-j, j):
            for m4 in half_range(-j, j):
                assert m_entry_genfun(j, m3, m4) == M.get(m3, m4)


def test_mn_trivial():
    M, N = mn_matrices(0)
    assert M.entries[0][0] == ExactScalar(1)
    assert N.entries[0][0] == ExactScalar(1)


def test_spin_caches_are_bounded():
    # lru_caches of one fixed size that holds the 13 spins verify --deep reads
    for cache in (mn_matrices, intertwine._s_terms):
        assert cache.cache_info().maxsize == intertwine._SPINS_KEPT >= 13


# the memos of the operator layer that hold values, not tables
OPERATOR_MEMOS = (q_ratio, intertwine._genfun_side, exact.value_pair, gamma_half)


def test_operator_memos_are_bounded():
    # fixed sizes, each above what verify --deep reads at delta (0,0) and
    # seed 7 (shown beside it), so that no entry is evicted there
    for cache, size, deep in ((q_ratio, intertwine._FACTORS_KEPT, 202),
                              (q_factor, intertwine._FACTORS_KEPT, 61),
                              (intertwine._s00, intertwine._FACTORS_KEPT, 5),
                              (intertwine._genfun_side, intertwine._FACTORS_KEPT, 32),
                              (exact.value_pair, exact._PAIRS_KEPT, 776),
                              (gamma_half, exact._GAMMAS_KEPT, 33),
                              (wigner._c_pair, wigner._C_PAIRS_KEPT, 140)):
        assert cache.cache_info().maxsize == size > deep


def test_closed_form_check_builds_each_factor_once():
    # one q_factor miss per distinct (z, m4) and one S00 miss per z: the
    # entry-by-entry check no longer rebuilds them per entry
    zs = [F(3, 2), F(5, 2), F(7, 2), F(9, 2), F(11, 2)]
    q_factor.cache_clear()
    intertwine._s00.cache_clear()
    assert closed_form_check(3, zs)
    assert q_factor.cache_info().misses <= len(zs) * 7
    assert intertwine._s00.cache_info().misses == len(zs)
    assert q_factor.cache_info().hits > q_factor.cache_info().misses


# ---------------------------------------------------------------------------
# S entries
# ---------------------------------------------------------------------------

def test_s_block_is_the_term_by_term_sum():
    # the exact entry equals the sum of i^{-2 m4} M N factor(z, m4) over m4;
    # the complex entry adds the same terms in m4 order from 0j, so it has
    # the same bits
    for tj in range(0, 7):
        j = HalfInt(tj)
        M, N = mn_matrices(j)
        ms = half_range(-j, j)
        for z, factor in ((F(7, 2), q_ratio), (F(5, 2), q_factor), (2.3 + 0.7j, q_ratio)):
            floaty = isinstance(z, complex)
            block = intertwine._s_block(j, ms, ms, z, factor)
            for a in range(len(ms)):
                for b in range(len(ms)):
                    want = 0j if floaty else ExactScalar(0)
                    for i, m4 in enumerate(ms):
                        c = ExactScalar.i_power(-m4.twice) * (M.entries[a][i] * N.entries[i][b])
                        if c:
                            want = want + (c.to_complex() if floaty else c) * factor(z, m4)
                    assert block[a][b] == want
                    assert repr(block[a][b]) == repr(want)


def test_s_entry_trivial_and_parity():
    for z in (F(3, 2), F(2), F(7, 2)):
        assert s_entry_sum(0, 0, 0, 0, z) == q_factor(z, 0)
    for j in range(1, 5):
        for m3 in range(-j, j + 1):
            for m2 in range(-j, j + 1):
                if (2 * j + m3 - m2) % 2:
                    assert s_entry_sum(j, 0, m3, m2, F(5, 2)).is_zero()


def test_s_entry_values_single_radical():
    # brute-forced over exact M, N, Q; at half-odd z the Gamma pair absorbs
    # every power of pi, leaving rational * radical
    assert s_entry_sum(2, 0, 2, 0, F(5, 2)) == ExactScalar(F(16, 105), 6)
    assert s_entry_sum(2, 0, 2, -2, F(5, 2)) == ExactScalar(F(32, 35))
    assert s_entry_sum(2, 0, 1, -1, F(5, 2)) == ExactScalar(F(-16, 35))
    # at integer z a single power of pi survives
    assert [p for _r, p, _im in s_entry_sum(1, 0, 1, 1, F(2)).terms] == [2]


def test_closed_form_matches_sum():
    for j in range(0, 4):
        assert closed_form_check(j, [F(3, 2), F(5, 2), F(11, 2)])


def test_closed_form_float_path():
    z = 2.375
    a = s_entry_3f2(2, 0, 2, 0, z)
    b = s_entry_sum(2, 0, 2, 0, complex(z))
    assert abs(a - b) < 1e-10 * max(1.0, abs(b))


def test_closed_form_float_path_matches_mpmath():
    # the same closed form at 60 digits: Gamma prefactor times the 3F2 summed
    # term by term; where the 3F2 cancels (z = 0.6, j = 5) a float sum lost
    # up to 1e-10 relative
    import mpmath as mp

    def ref(j, a, b, z):
        z = mp.mpc(z.real, z.imag)
        tops = [z - j - 1, mp.mpf(-j - a), mp.mpf(b - j)]
        bots = [mp.mpf(-2 * j), mp.mpf(1 - 2 * j - a + b) / 2]
        kmax = min(j + a, j - b)
        f, t = mp.mpc(0), mp.mpc(1)
        for k in range(kmax + 1):
            f += t
            if k < kmax:
                t = t * mp.fprod(x + k for x in tops) / (mp.fprod(x + k for x in bots) * (k + 1))
        cc = mp.sqrt(mp.factorial(j + a) * mp.factorial(j - a) * mp.factorial(j + b) * mp.factorial(j - b))
        pref = (-1) ** ((a + b) // 2) * mp.factorial(2 * j) * mp.pi / cc
        return pref * mp.gamma((2 * z - a + b - 1) / 2) * f \
            / (mp.gamma(mp.mpf(-2 * j - a + b + 1) / 2) * mp.gamma(j + z))

    with mp.workdps(60):
        for z in (0.6, 1.5 + 0.5j, 2.375, 0.3 + 1.1j, 3.7):
            for j in range(6):
                for a in range(-j, j + 1):
                    for b in range(-j, j + 1):
                        if (a - b) % 2 == 0:
                            want = ref(j, a, b, complex(z))
                            got = s_entry_3f2(j, 0, a, b, z)
                            assert abs(mp.mpc(got) - want) <= 1e-13 * abs(want), (z, j, a, b)


def test_closed_form_float_path_at_cancelling_prefactor_poles():
    # where Gamma((2z-m1+m4-1)/2) has a pole that the 3F2 cancels (real
    # half-odd z), the float closed form is finite and equals the exact one
    points = [(j, a, b, z) for j in range(4) for a in range(-j, j + 1) for b in range(-j, j + 1)
              for z in (F(3, 2), F(5, 2), F(7, 2))
              if (a - b) % 2 == 0 and 2 * z - a + b - 1 <= 0]
    assert len(points) == 20
    for j, a, b, z in points:
        want = s_entry_3f2(j, 0, a, b, z).to_complex()
        got = s_entry_3f2(j, 0, a, b, complex(z))
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (j, a, b, z, got, want)
    assert s_entry_3f2(1, 0, 1, -1, complex(1.5)) == 4 / 3


def _values(x) -> dict:
    return {k: complex(v) for k, v in x.items()} if isinstance(x, dict) else {None: complex(x)}


def _exact_values(x) -> dict:
    return {k: v.to_complex() for k, v in x.items()} if isinstance(x, dict) \
        else {None: x.to_complex()}


_CHI_E = Character((0, 0), (F(7, 3), F(-4, 5)))
_CHI_F = Character((0, 0), (complex(7 / 3), complex(-4 / 5)))
_V = WignerIndex.of(2, 1, 1, 0)

# (exact call, the same call on the float path): each float path of a
# formula that also has an exact evaluation, at rational points given as
# complex numbers (angles in radians)
FLOAT_PATH_CASES = {
    **{"dr_p_action-" + root: (lambda r=root: dr_p_action(r, _V, _CHI_E),
                               lambda r=root: dr_p_action(r, _V, _CHI_F))
       for root in NONCOMPACT},
    "s_norm-2-2-0": (lambda: s_norm(2, 0, 2, 0, F(7, 3)), lambda: s_norm(2, 0, 2, 0, complex(7 / 3))),
    "s_norm-3-1-1": (lambda: s_norm(3, 1, 1, -1, F(11, 4)), lambda: s_norm(3, 1, 1, -1, complex(11 / 4))),
    "s_entry_sum-2-2-0": (lambda: s_entry_sum(2, 0, 2, 0, F(5, 2)),
                          lambda: s_entry_sum(2, 0, 2, 0, complex(5 / 2))),
    "s_entry_sum-1-1-1": (lambda: s_entry_sum(1, 0, 1, -1, F(7, 2)),
                          lambda: s_entry_sum(1, 0, 1, -1, complex(7 / 2))),
    # integer z: a Gamma of Q's denominator at its pole is 0 on both paths
    "q_factor-denominator-pole": (lambda: q_factor(F(1), 1), lambda: q_factor(complex(1), 1)),
    # equal pole orders: the directional limit on both paths
    "q_factor-equal-order-poles": (lambda: q_factor(F(0), 1), lambda: q_factor(0j, 1)),
    "s_entry_sum-integer-1": (lambda: s_entry_sum(1, 0, 1, 1, F(1)), lambda: s_entry_sum(1, 0, 1, 1, complex(1))),
    "s_entry_sum-integer-2": (lambda: s_entry_sum(2, 0, 2, 0, F(2)), lambda: s_entry_sum(2, 0, 2, 0, complex(2))),
    "t_norm-integer": (lambda: t_norm(2, 0, F(7, 3)), lambda: t_norm(2, 0, complex(7 / 3))),
    "t_norm-integer-4": (lambda: t_norm(-1, 3, F(-5, 2)), lambda: t_norm(-1, 3, complex(-5 / 2))),
    "t_norm-half-odd": (lambda: t_norm(0, 1, F(7, 2)), lambda: t_norm(0, 1, complex(7 / 2))),
    "t_norm-half-odd-3": (lambda: t_norm(0, -3, F(9, 2)), lambda: t_norm(0, -3, complex(9 / 2))),
    "little_d-2": (lambda: little_d(2, 1, -1, F(1, 2)), lambda: little_d(2, 1, -1, math.pi / 2)),
    "little_d-3/2": (lambda: little_d(F(3, 2), F(1, 2), F(-3, 2), F(3, 2)),
                     lambda: little_d(F(3, 2), F(1, 2), F(-3, 2), 3 * math.pi / 2)),
}


@pytest.mark.parametrize("case", sorted(FLOAT_PATH_CASES))
def test_float_path_matches_exact(case):
    exact_call, float_call = FLOAT_PATH_CASES[case]
    want, got = _exact_values(exact_call()), _values(float_call())
    assert want and set(want) == set(got)
    for k, w in want.items():
        assert abs(got[k] - w) <= 1e-12 * max(1.0, abs(w)), (k, got[k], w)


def test_s_norm():
    assert s_norm(0, 0, 0, 0, F(22, 7)) == ExactScalar(1)
    # ratio to the sum path at a half-integer z
    z = F(7, 2)
    s00 = q_factor(z, 0)
    for (m3, m2) in ((2, 0), (0, 0), (-2, 2)):
        assert s_norm(2, 0, m3, m2, z) * s00 == s_entry_sum(2, 0, m3, m2, z)


def test_hg_generating_functions():
    for j in range(0, 4):
        assert hg_check(j, [F(3, 2), F(7, 2)])


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

def test_simple_operator_structure():
    for kind in ("A2", "A4"):
        bm = simple_operator(kind, (2, 0), CHI)
        for i in range(len(bm.row_index)):
            for k in range(len(bm.col_index)):
                if i != k:
                    assert bm.entries[i][k].is_zero()
    for kind in ("A1", "A2", "A3", "A4"):
        bm = simple_operator(kind, (0, 0), CHI)
        assert bm.entries == [[ExactScalar(1)]]
    # A1 entries are the normalized S at z = (lambda1-lambda2+1)/2 = 3/2
    bm = simple_operator("A1", (2, 0), Character((0, 0), (F(7, 2), F(3, 2))))
    z = F(3, 2)
    assert len(bm.row_index) == 3
    for i, mr in enumerate(bm.row_index):
        for k, mc in enumerate(bm.col_index):
            assert bm.entries[i][k] == s_norm(2, 0, mr, mc, z)


def test_simple_operator_rejects_unknown_kind():
    # LONG is a kind of `compute`, not a stage
    for kind in ("LONG", "A5"):
        with pytest.raises(ValueError, match="A1..A4"):
            simple_operator(kind, (1, 1), CHI)


def test_mixed_lambda_runs_on_the_float_path():
    # one rational and one complex part: every stage is complex, as in gkmod
    mixed = long_operator_product((2, 0), Character((0, 0), (F(5, 2), 1.5 + 0j)))
    floaty = long_operator_product((2, 0), Character((0, 0), (2.5 + 0j, 1.5 + 0j)))
    assert mixed.entries == floaty.entries
    assert all(type(e) is complex for row in mixed.entries for e in row)


def test_simple_operator_pole_reporting():
    with pytest.raises(PoleError) as err:
        simple_operator("A1", (1, 1), Character((0, 0), (F(1, 2), F(3, 2))))
    assert "A1" in str(err.value)


def test_long_operator_product():
    bm = long_operator_product((0, 0), CHI)
    assert bm.entries == [[ExactScalar(1)]]
    bm = long_operator_product((1, 1), CHI)
    assert len(bm.row_index) == 2
    assert not bm.entries[0][0].is_zero()


@pytest.mark.parametrize("lam", [(F(7, 3), F(4, 5)), (3.3 + 0.4j, 0.7 - 0.2j)])
def test_stage_chain(lam):
    l1, l2 = lam
    for delta in ((0, 0), (1, 1), (0, 1), (1, 0)):
        chi = Character(delta, lam)
        swapped = delta[::-1]
        stages = word_stages(LONG_WORD, chi)
        assert [(s.name, s.reflection) for s in stages] == [
            ("A1", "a1"), ("A2", "a2"), ("A3", "a1"), ("A4", "a2")]
        # the source characters of A1..A4
        assert [s.source for s in stages] == [
            chi, Character(swapped, (l2, l1)), Character(swapped, (l2, -l1)),
            Character(delta, (-l1, l2))]
        # the stage arguments of the README
        assert [s.argument for s in stages] == [
            (l1 - l2 + 1) / 2, (l1 + 1) / 2, (l1 + l2 + 1) / 2, (l2 + 1) / 2]
        other = word_stages(BRAID_WORD, chi)
        assert [s.name for s in other] == ["a2 at position 1", "a1 at position 2",
                                           "a2 at position 3", "a1 at position 4"]
        assert [s.argument for s in other] == [
            (l2 + 1) / 2, (l1 + l2 + 1) / 2, (l1 + 1) / 2, (l1 - l2 + 1) / 2]
        for word in (stages, other):
            assert all(a.target == b.source for a, b in zip(word, word[1:]))
            assert word[-1].target == Character(delta, (-l1, -l2))


def test_stage_errors_name_the_stage():
    # (lambda2+1)/2 = 0 is a pole of the a2 stage: A4 of the long word and
    # the first stage of the other word
    chi = Character((0, 0), (F(9, 2), F(-1)))
    with pytest.raises(PoleError, match=r"^stage A4 \(argument 0\): "):
        long_operator_product((2, 0), chi)
    with pytest.raises(PoleError, match=r"^stage a2 at position 1 \(argument 0\): "):
        word_product(BRAID_WORD, (2, 0), chi)


def test_braid_relation():
    # criterion 12 covers more characters; here a negative lambda2, and
    # a2's argument shifted by 1/2 in both words breaks the relation
    assert braid_check([(j, n) for j, n, _ in ktypes((0, 0), 2, 2)],
                       Character((0, 0), (F(5, 3), F(-7, 4))))
    def shifted(word, chi):
        return [st._replace(argument=st.argument + F(1, 2)) if st.reflection == "a2" else st
                for st in word_stages(word, chi)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(intertwine, "word_stages", shifted)
        assert not braid_check([(2, 0), (2, 1)], CHI)


def test_inversion_identity():
    assert inversion_check(0, 0, (0, 0), [F(7, 2)])
    assert inversion_check(2, 0, (0, 0), [F(7, 2)])
    assert inversion_check(3, 1, (1, 1), [F(5, 2)])
    assert inversion_check(3, 0, (0, 0), [F(11, 3)])     # generic rational z


def test_genfun_equivalence_both_parities():
    for (j, n) in [(1, 1), (2, 1), (2, 2), (0, 0)]:
        assert genfun_check((j, n), CHI)


def test_half_integer_spin_blocks():
    # mixed delta: half-odd j, supported through the sum/simple-operator
    # path at half-integer arguments; the closed-form routes reject it
    chi = Character((0, 1), (F(7, 2), F(1, 2)))
    bm = simple_operator("A1", (F(3, 2), F(1, 2)), chi)
    assert [str(m) for m in bm.row_index] == ["-1/2", "3/2"]
    assert all(not e.is_zero() for row in bm.entries for e in row)
    # odd 2j+m3-m2 vanishes here too
    assert s_entry_sum(F(3, 2), F(1, 2), F(1, 2), F(1, 2), F(2)).is_zero()
    # nonvanishing half-spin entries have m3-m2 odd, so the phase
    # i^{m2-m3-2m4} is even: entries stay real
    v = s_entry_sum(F(3, 2), F(1, 2), F(3, 2), F(1, 2), F(2))
    assert not v.is_zero() and not any(im for _r, _p, im in v.terms)
    with pytest.raises(ValueError):
        s_entry_3f2(F(3, 2), F(1, 2), F(1, 2), F(1, 2), F(2))
    with pytest.raises(ValueError):
        genfun_vs_product((F(3, 2), F(1, 2)), chi)


def test_genfun_delta11_integer_lambda():
    chi = Character((1, 1), (F(6), F(4)))
    for (j, n) in [(1, 0), (2, 1)]:
        assert genfun_check((j, n), chi)


def _rising(z, k):
    out = F(1)
    for i in range(k):
        out *= z + i
    return out


def test_genfun_needs_no_product(monkeypatch):
    # the constant is fixed in advance, (z_A1)_j (z_A3)_j, so the genfun
    # route never calls the product; the comparison below is then between
    # two independent computations
    cases = [(CHI, [(1, 1), (2, 1), (3, 0)]),
             (Character((1, 1), (F(6), F(4))), [(1, 0), (2, 1)])]
    got = []
    with monkeypatch.context() as mp:
        def no_product(ktype, chi):
            raise RuntimeError("product called")
        mp.setattr(intertwine, "long_operator_product", no_product)
        for chi, kts in cases:
            l1, l2 = chi.lam
            for j, n in kts:
                gm, c = genfun_vs_product((j, n), chi)
                assert c == ExactScalar(_rising((l1 - l2 + 1) / 2, j) * _rising((l1 + l2 + 1) / 2, j))
                got.append((chi, (j, n), gm))
    for chi, kt, gm in got:
        assert gm.entries == long_operator_product(kt, chi).entries


def test_warm_memos_give_the_cold_blocks():
    # the product and genfun blocks of j, |n| <= 3 at two characters, in
    # shuffled order with the memos warm (as the benchmark's operators
    # workload runs them), equal the blocks computed each from cold memos,
    # entry for entry and term for term
    chis = (Character((0, 0), (F(7, 3), F(4, 5))), Character((1, 1), (F(6), F(4))))
    routes = {"product": long_operator_product, "genfun": long_operator_genfun}
    items = [(route, chi, (j, n)) for chi in chis for (j, n, _mult) in ktypes(chi.delta, 3, 3)
             for route in routes]
    random.Random(5).shuffle(items)

    def terms(bm):
        return [[list(e.terms.items()) for e in row] for row in bm.entries]

    cold = {}
    for route, chi, kt in items:
        for memo in OPERATOR_MEMOS + (intertwine._s_terms,):
            memo.cache_clear()
        cold[route, chi, kt] = terms(routes[route](kt, chi))
    for route, chi, kt in items:
        assert terms(routes[route](kt, chi)) == cold[route, chi, kt], (route, chi, kt)
    assert q_ratio.cache_info().hits and intertwine._genfun_side.cache_info().hits


def test_genfun_degenerate_block_is_named():
    # at lambda = (7,2) the product vanishes on the whole block, and the
    # generating function's raw entries do too
    chi = Character((1, 1), (F(7), F(2)))
    pm = long_operator_product((0, 3), chi)
    assert all(e.is_zero() for row in pm.entries for e in row)
    with pytest.raises(DegenerateBlock) as err:
        genfun_vs_product((0, 3), chi)
    assert isinstance(err.value, AssertionError)
    assert str(err.value).startswith("degenerate block (0,3)")


def test_genfun_errors_name_block_and_factor():
    # the A2 pair at (lambda1+1)/2 = 11/4 with a half-odd exponent
    with pytest.raises(UnsupportedExactInput) as err:
        genfun_vs_product((1, 0), Character((1, 1), (F(9, 2), F(5, 2))))
    assert str(err.value).startswith("block (1,0): stage A2 Pochhammer pair (argument 11/4): ")
    # the constant (z_A1)_2 = (-1)(0) at z_A1 = (lambda1-lambda2+1)/2 = -1
    with pytest.raises(PoleError) as err:
        genfun_vs_product((2, 0), Character((0, 0), (F(1, 2), F(7, 2))))
    assert str(err.value).startswith("block (2,0): constant (z_A1)_2 (z_A3)_2 is 0")


def test_long_genfun_endpoint():
    bm = long_operator_genfun((1, 1), CHI)
    pm = long_operator_product((1, 1), CHI)
    assert bm.entries == pm.entries


# ---------------------------------------------------------------------------
# Mellin quadrature
# ---------------------------------------------------------------------------

def test_mellin_grid():
    # criterion 10 checks the 16 grid points
    with pytest.raises(ValueError):
        mellin_numeric_check(0.3, F(0))


# ---------------------------------------------------------------------------
# export round-trips
# ---------------------------------------------------------------------------

def test_json_roundtrip():
    bm = long_operator_product((2, 1), CHI)
    text = block_to_json(bm, CHI, "LONG")
    back, doc = block_from_json(text)
    assert doc["kind"] == "LONG" and doc["delta"] == [0, 0]
    assert back.row_index == bm.row_index
    assert back.entries == bm.entries


def test_csv_stable():
    bm = simple_operator("A1", (1, 1), CHI)
    text = block_to_csv(bm)
    lines = text.strip().split("\n")
    assert lines[0] == "m,-1,1"
    assert len(lines) == 3
    first = lines[1].split(",")[1]
    assert parse_scalar(first) == bm.entries[0][0]
