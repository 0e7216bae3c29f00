"""Exact-arithmetic toolkit for Ramanujan-like hypergeometric series: modular
truncated sums, prime-power congruence templates, high-precision x-shift
expansions, and recovery of unknown rational coefficients from multi-prime
residue data.

The ``expansion`` names load on first use, and with them mpmath, so that
importing the package for its p-adic half loads neither.
"""

from typing import TYPE_CHECKING

from ._record import replace
from .constants import ONE, ConstantTag, Lquad, One, PiPower, SqrtDisc, Zeta, constant_value
from .congruence import (
    CongruenceReport,
    ExpansionTemplate,
    FitResult,
    Kron,
    LQp,
    ScanReport,
    TemplateTerm,
    ZetaP,
    admissible_primes,
    fit_unknowns,
    inadmissible,
    scan_next_term,
    template_rhs_mod,
    verify_congruence,
)
from .exactnum import (
    PadicResidue,
    ResidueClass,
    crt_combine,
    kronecker,
    primes_in_range,
    rational_reconstruct,
    reduce_rational,
    valuation,
)
from .lfunctions import (
    L_nonpositive,
    L_p_mod_p,
    QuadCharacter,
    bernoulli_all_mod_p,
    bernoulli_exact,
    generalized_bernoulli,
    zeta_nonpositive,
    zeta_p_mod_p,
)
from .series import (
    ClosedForm,
    SeriesSpec,
    numeric_sum,
    pochhammer,
    rhs_value,
    term_exact,
    truncated_sum_exact,
    truncated_sum_mod,
    truncated_sums_mod,
)

if TYPE_CHECKING:
    from .expansion import (
        ExpansionClaim,
        ExpansionReport,
        TruncatedSeries,
        recognize,
        shifted_expansion,
        verify_expansion,
    )

__version__ = "0.1.0"

_EXPANSION = ("ExpansionClaim", "ExpansionReport", "TruncatedSeries", "recognize",
              "shifted_expansion", "verify_expansion")


def __getattr__(name: str):
    if name in _EXPANSION:
        from . import expansion

        return getattr(expansion, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
