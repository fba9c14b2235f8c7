"""Finite-dimensional engine for the observable algebra.

Build observables from projector bases, transport them through unitary
conjugations, construct coordinate/momentum pairs on discrete spectra, and
run discretized time evolution in both pictures, with machine-checkable
invariants for every structural claim.
"""

from .canonical import (
    CanonicalPair,
    LinearSpectrumObservable,
    TranslationSpec,
    commutator_limit_probe,
    conjugation_parity_check,
    decompose_displacement,
    make_canonical_pair,
    make_position,
    momentum_as_linear_spectrum,
    translate,
    translate_labels,
    weyl_residual,
)
from .core import (
    GROUPING_TOL,
    TOL_HERM,
    TOL_RECON,
    AlgebraError,
    DimensionMismatch,
    DyadBasis,
    Observable,
    ProjectorBasis,
    PseudoObservable,
    SpectralDecomposition,
    apply_function,
    as_observable,
    commutator,
    dagger,
    dyad_basis_from,
    imag_part,
    inner_product,
    is_compatible,
    opnorm,
    real_part,
    spectral_decompose,
    trace,
)
from .evolution import (
    EvolutionEngine,
    Hamiltonian,
    TimeGrid,
    compatibility_persistence_check,
    heisenberg_residual,
    heisenberg_step,
    heisenberg_step_explicit,
    reverse_step,
    schrodinger_residual,
    schrodinger_step,
    symmetry_check,
    temporal_abscissa_check,
    von_neumann_residual,
    von_neumann_step,
)
from .expr import (
    EvalContext,
    ExprEvalError,
    ExprSyntaxError,
    ObservableExpr,
    evaluate,
    explicit_time_derivative,
    parse,
    time_reverse,
    unparse,
)
from .report import CheckReport
from .states import (
    DensityObservable,
    StateVector,
    expectation,
    pure_density,
    transform_density,
    transform_state,
)
from .transforms import (
    Transformation,
    apply,
    compose,
    from_generatrix,
    from_unitary,
    inner_product_invariance_check,
    invariance_characterization,
    inverse,
    is_invariant,
    spectrum_preservation_check,
    trace_invariance_check,
    transform_basis,
    unitary_exponential,
)

__version__ = "0.1.0"
