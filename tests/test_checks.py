"""Each shared check tells a right answer from a wrong one.

``sp4ps verify``, the acceptance criteria and the unit tests all run the
same ``*_check`` functions, so a check that always passed would hide a
fault from all of them.  Here one side of each comparison is made wrong
at one input (its first call) and the check must return False.
"""

import random
from fractions import Fraction as F

import pytest

from sp4ps import gkmod, intertwine, sp4, wigner
from sp4ps.exact import Character, ExactScalar, HalfInt
from sp4ps.wigner import EulerAngles, WignerIndex

CHI = Character((0, 0), (F(9, 2), F(5, 2)))
TWO = ExactScalar(2)

# (check, inputs, module and name of one compared function, wrong answer)
CASES = [
    (wigner.jacobi_check, lambda: (random.Random(1), 3), wigner, "jacobi_hyp", lambda v: v + 1),
    (wigner.little_d_check, lambda: ([(HalfInt.of(2), HalfInt.of(1), HalfInt.of(0), 1.0)],),
     wigner, "wigner_via_jacobi", lambda v: v + 0.5),
    (wigner.d_matrix_check, lambda: (random.Random(1), 1, 1), wigner, "wigner_D_matrix",
     lambda d: 2 * d),
    (wigner.cg_product_check,
     lambda: ([(WignerIndex.of(1, 1, 0, 1), WignerIndex.of(1, 1, 1, 0),
                EulerAngles(0.3, -0.7, 1.1, 0.4))],),
     wigner, "product_expand", lambda out: {}),
    (intertwine.mn_inverse_check, lambda: (HalfInt.of(2),), intertwine, "mn_matrices",
     lambda mn: (mn[0], mn[1].scale(TWO))),
    (intertwine.closed_form_check, lambda: (0, [F(3, 2)]), intertwine, "s_entry_3f2",
     lambda v: TWO * v),
    (intertwine.parity_check, lambda: (1, F(5, 2)), intertwine, "s_entry_sum",
     lambda v: ExactScalar(1)),
    (intertwine.hg_check, lambda: (0, [F(3, 2)]), intertwine, "hg_entry_ct", lambda v: TWO * v),
    (intertwine.genfun_check, lambda: ((0, 0), CHI), intertwine, "long_operator_product",
     lambda bm: bm.scale(TWO)),
    (intertwine.inversion_check, lambda: (0, 0, (0, 0), [F(7, 2)]), intertwine, "q_ratio",
     lambda v: TWO * v),
    (intertwine.braid_check, lambda: ([(1, 1)], CHI), intertwine, "word_product",
     lambda bm: bm.scale(TWO)),
    # at complex lambda: one word's block off by a relative 1e-9 is outside
    # the tolerance
    pytest.param(intertwine.braid_check,
                 lambda: ([(F(3, 2), F(1, 2))], Character((0, 1), (3.3 + 0.4j, 0.7 - 0.2j))),
                 intertwine, "word_product", lambda bm: bm.scale(1 + 1e-9),
                 id="braid_check-complex"),
    (gkmod.casimir_check,
     lambda: ([WignerIndex.of(0, 0, 0, 0)], Character((0, 0), (F(3), F(1, 2)))),
     gkmod, "omega2_action", lambda out: {}),
    # at complex lambda: the diagonal off by a relative 1e-6 is outside the
    # tolerance
    pytest.param(gkmod.casimir_check,
                 lambda: ([WignerIndex.of(1, 1, 0, 1)], Character((0, 0), (3 + 0j, 0.5 + 0j))),
                 gkmod, "omega2_action", lambda out: {k: c * (1 + 1e-6) for k, c in out.items()},
                 id="casimir_check-complex"),
    (gkmod.bracket_check,
     lambda: (sp4.random_element(random.Random(3)), sp4.random_element(random.Random(4)),
              gkmod.ktype_basis(1, 1, (0, 0)), CHI),
     sp4, "bracket", lambda br: br.scale(F(2))),
    (sp4.iwasawa_exact_check, lambda: ("a1", [F(3, 4)]), sp4, "exp_nilpotent",
     lambda g: sp4.GMat.identity()),
    (sp4.iwasawa_float_check, lambda: ("a1", random.Random(1), 1), sp4, "iwasawa_sl2",
     lambda khn: (2 * khn[0], khn[1], khn[2])),
]


def _wrong_once(real, bad):
    calls = []

    def wrapped(*args, **kw):
        out = real(*args, **kw)
        calls.append(args)
        return bad(out) if len(calls) == 1 else out
    return wrapped


@pytest.mark.parametrize("check, inputs, module, name, bad", CASES,
                         ids=[getattr(case, "id", None) or case[0].__name__ for case in CASES])
def test_check_fails_when_one_side_is_wrong(monkeypatch, check, inputs, module, name, bad):
    assert check(*inputs()) is True
    monkeypatch.setattr(module, name, _wrong_once(getattr(module, name), bad))
    assert check(*inputs()) is False
