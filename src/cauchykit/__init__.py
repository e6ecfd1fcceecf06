"""cauchykit: irreducible decomposition of elastic stiffness tensors.

A stiffness tensor splits uniquely under index permutations into a totally
symmetric (Cauchy) part and a six-dimensional mixed-symmetry (non-Cauchy)
remainder whose vanishing is the classical Cauchy relations; each part then
refines uniquely under rotations into scalar, deviator and harmonic pieces.
The package classifies materials by this structure and applies it to Hooke's
law, elastic energy bounds, and anisotropic acoustic wave propagation.
"""

from .tensor_core import (
    LEVI_CIVITA,
    SymmetryViolation,
    cubic_stiffness,
    eig_sym3,
    frobenius_inner4,
    frobenius_norm4,
    full_to_voigt,
    isotropic_stiffness,
    voigt_to_full,
)
from .decomp import (
    Classification,
    IrreducibleParts,
    SAParts,
    a_from_delta,
    assemble,
    cauchy_factor,
    classify,
    decompose,
    generator_tensors,
    sa_split,
    so3_refine,
)
from .constitutive import (
    BoundsReport,
    EnergyReport,
    TraceSplit,
    energy,
    hooke_full,
    hooke_mean,
    hooke_shear,
    k_mean,
    k_shear,
    split_strain,
    split_stress,
    stability_bounds,
)
from .acoustics import (
    ChristoffelBundle,
    PureModeHit,
    PureModeScan,
    WaveSolution,
    christoffel,
    critical_directions,
    fibonacci_sphere,
    find_pure_longitudinal,
    longitudinal_velocity,
    pure_longitudinal_residual,
    shear_condition_residual,
    shear_polarization,
    shear_sum,
    shear_velocity,
    sum_squared_velocities,
    wave_solve,
)
from .materials import (
    MaterialError,
    MaterialRecord,
    bundled_material,
    list_bundled,
    load_material,
    material_from_dict,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
