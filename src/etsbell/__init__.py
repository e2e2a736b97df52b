"""Entangled-thermal-state Bell tests with dichotomized homodyne readout."""

from .errors import (EtsError, NoCrossingError, NonconvergenceError, RotationError,
                     UnsupportedAngleSetError)
from .inequalities import (INEQUALITIES, MERMIN3, SASA, SVETLICHNY3, SVETLICHNY4,
                           WWZB4, AngleSet, CanonicalAngles, InequalitySpec,
                           OptimizationResult, canonical_angles, deterministic_bound,
                           evaluate, evaluate_curve_with_error, evaluate_with_error,
                           evaluate_with_gradient, functional_value, get_inequality,
                           hybrid_partition_bound, optimize_angles, verify_lr_bound)
from .integration import QuadratureConfig, converged_correlation, estimate_correlation
from .measurement import PAULI_ROTATIONS, DetectorModel, EffectiveRotation, zx_rotation
from .oracles import (GHZ3_SVETLICHNY_MAX, GHZ4_SVETLICHNY_MAX, W_SVETLICHNY_MAX,
                      compensated_displacement, ghz_correlation_closed, gram_decay,
                      sasa_closed, sign_contrast, spin_ghz_correlation,
                      svetlichny_ghz4_closed, svetlichny_ghz_closed,
                      w_correlation_closed)
from .states import FamilyKind, StateFamily, family_structure
from .sweeps import (SweepPlan, SweepResult, SweepRow, crossing_displacement,
                     run_sweep)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
