"""Exact arithmetic for ordinals below epsilon-0 and finitely-piecewise
homeomorphisms of ordinal segments, plus the group-dynamical and
matching-based constructions built on them.

The names below are exported lazily (PEP 562): `ordhomeo.X` imports the
submodule defining X on first use, so importing the package, or one
submodule, loads nothing else.  The submodules themselves are reachable
as attributes too, e.g. `ordhomeo.homeo` after `import ordhomeo`."""

from importlib import import_module

# exported name -> the submodule that defines it
_SOURCE = {name: module for module, names in (
    ("errors", "ContractError DomainError OrdhomeoError ParseError ResourceError"
               " ValidationError"),
    ("ordinals", "OMEGA ONE ZERO Ordinal PointClass absorb_threshold cb_rank_segment"
                 " classify compare diff_exponent enumerate_level format_ordinal"
                 " in_derived isolating_left_endpoint left_subtract omega_pow"
                 " parse_ordinal rank"),
    ("homeo", "ClopenInterval OrdinalSet Piece PwHomeo apply build canonicalize"
              " common_fixed_points compose enum_index find_fixed_point_above"
              " fixed_points format_homeo format_interval format_ordinal_set identity"
              " index_of initial interval_swap invariant_point invariant_prefix inverse"
              " order_of order_type parse_homeo restrict_to_initial span"
              " sup_image swap_points"),
    ("dynamics", "RoelckeCertificate TransitivityProblem baire_density_witness"
                 " dense_approx discontinuity_sequence fresh_point in_baire_T"
                 " make_transitive roelcke_decompose"),
    ("sieve", "ConstraintSystem FinitePermutation PartialInjection below chain_limit"
              " contains extend_to_permutation format_constraints format_injection"
              " format_permutation hall_brute normalize parse_constraints"
              " parse_injection satisfiable"),
) for name in names.split()}

__all__ = list(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SOURCE.values():  # a submodule: importing binds it here
        return import_module(f"{__name__}.{name}")
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_SOURCE[name]}"), name)
    globals()[name] = value  # later lookups bypass this hook
    return value
