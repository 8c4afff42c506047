"""Quantum state engineering with systems of on-off (click) photodetectors.

Heralded state preparation, multi-photon subtraction and addition, and their
composition into a click-conditioned amplifier, with closed phase-space forms
cross-checked by a truncated-Fock-space oracle.

The production path is ``dsymbol``, ``povm``, ``pfunc``, ``processes`` and
``cli``.  The paper-style cross-checks -- the kernel's direct and exact sums
and the alternating closed forms -- live in ``clickcraft.validation``, which
this package does not import; the Fock oracle is ``clickcraft.fock``.
"""

from .dsymbol import (
    CutoffError,
    DSymbolParams,
    DSymbolTable,
    NumericalError,
    d_recursive,
)
from .fock import (
    TwoModeDensityMatrix,
    apply_beam_splitter,
    apply_two_mode_squeezer,
    condition_on_clicks,
    make_state,
    normally_ordered_moment,
    photon_distribution,
    tensor_product,
    trace_out_detector_mode,
)
from .pfunc import (
    GridSpec,
    PhaseSpaceMixture,
    convolve_noise,
    evaluate_grid,
    husimi_smooth,
    husimi_unsmooth,
    integral,
    moment,
    multiply_click_factor,
    scale_loss,
)
from .povm import (
    ClickDistribution,
    DetectorConfig,
    OperatorNormDistance,
    click_kernel_table,
    click_povm_element,
    click_statistics,
    operator_norm_distance,
    photoelectric_element,
)
from .processes import (
    AdditionSpec,
    AmplifySpec,
    BeamSplitterConfig,
    HeraldedDistribution,
    ProcessOutcome,
    SqueezerConfig,
    SubtractionSpec,
    add,
    amplify,
    effective_sigma2,
    herald_tmsv_distribution,
    nu_for_sigma2,
    probability_table,
    subtract,
)

__version__ = "0.1.0"
