"""Characteristic structure and Lopatinski stability tools for full ideal MHD.

The library assembles the 8x8 symbol of the non-isentropic ideal MHD
equations, evaluates the closed-form wave speeds and the regularity /
glancing classification of multiple eigenvalues, and scans the uniform
Lopatinski condition for planar boundary and Lax-shock problems, including
the small-magnetic-field stability limit.
"""

from .errors import (
    CharacteristicBoundary,
    ConfigError,
    DimensionMismatch,
    MhdStabError,
    MissingBoundary,
    NoAdmissibleShock,
    NonAdmissibleState,
    RankDeficiency,
    SingularTransform,
    SpectralSplitFailure,
    ZeroFrequency,
)
from .thermo import (
    EosEval,
    EquationOfState,
    IdealGas,
    ThermoState,
    eval_eos,
    sound_speed_sq,
)
from .symbol import (
    UNKNOWN_ORDER,
    assemble_full_symbol,
    assemble_tilde_symbol,
    boundary_matrix,
    symmetrizer,
)
from .charstruct import (
    BoundaryFrame,
    CharacteristicRoot,
    Classification,
    NonglancingResult,
    RegimeTag,
    WaveSpeeds,
    adapted_block_matrix,
    adapted_change_of_basis,
    char_poly_reduced,
    classify,
    eigenvalues,
    entropy_transform,
    nonglancing_test,
    wave_speeds,
)
from .lopatinski import (
    BoundaryFrequency,
    BoundaryOperator,
    ExplicitGrid,
    GasShockSpec,
    HemisphereGrid,
    LopatinskiResult,
    PlanarShock,
    ScanResult,
    StudyResult,
    assemble_G,
    b_to_zero_study,
    lopatinski_det,
    rankine_hugoniot,
    shock_boundary_operator,
    shock_scan,
    stable_subspace,
    uniform_scan,
)

__version__ = "0.1.0"
