"""Entangled-thermal-state Bell tests with dichotomized homodyne readout."""

from types import ModuleType as _ModuleType

from .errors import (EtsError, NoCrossingError, NonconvergenceError, RotationError,
                     UnsupportedAngleSetError)
from .inequalities import (INEQUALITIES, MERMIN3, SASA, SVETLICHNY3, SVETLICHNY4,
                           WWZB4, AngleSet, CanonicalAngles, InequalitySpec,
                           OptimizationResult, canonical_angles, evaluate,
                           evaluate_curve_with_error, evaluate_with_error,
                           evaluate_with_gradient, get_inequality, optimize_angles,
                           partition_bound, verify_lr_bound)
from .integration import QuadratureConfig, converged_correlation, estimate_correlation
from .measurement import PAULI_ROTATIONS, DetectorModel, EffectiveRotation, zx_rotation
from .oracles import (GHZ3_SVETLICHNY_MAX, GHZ4_SVETLICHNY_MAX, compensated_displacement,
                      ghz_correlation_closed, gram_decay, sasa_closed, sign_contrast,
                      svetlichny_ghz4_closed, svetlichny_ghz_closed)
from .states import FamilyKind, StateFamily, family_structure
from .sweeps import (SweepPlan, SweepResult, SweepRow, crossing_displacement,
                     run_sweep)

__version__ = "0.1.0"

# the public names, without the submodules that importing them binds here
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
