"""Exact intertwining operators and (g,K)-module action for the minimal
principal series of Sp(4,R)."""

from .exact import (Character, ExactScalar, HalfInt, PoleError, UnsupportedExactInput,
                    binomial, gamma_half, parse_scalar, pochhammer)
from .laurent import LSeries1, TruncationError, binom_series, hyp2f1_series
from .wigner import (EulerAngles, OutOfRange, WignerIndex, clebsch_gordan_j1,
                     jacobi_hyp, jacobi_sum, little_d, product_expand, wigner_D)
from .sp4 import (GMat, cayley_check, chevalley, hc_omega2, hc_omega4,
                  iwasawa_sl2, u2_generators, weyl_on_lambda, weyl_reflection)
from .gkmod import (BasisIndex, NoncompactLabel, dl_k_action, dl_p_action,
                    dl_word, ktypes, m_set, omega2_action)
from .intertwine import (BlockMatrix, QuadratureError, inversion_check,
                         long_operator_genfun, long_operator_product,
                         mellin_numeric_check, mn_matrices, q_factor,
                         s_entry_3f2, s_entry_sum, s_norm, simple_operator,
                         t_norm)

__version__ = "0.1.0"
