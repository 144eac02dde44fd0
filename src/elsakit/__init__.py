"""Attention-built matrix programs with verification-grade oracles.

The package provides, bottom up: a dense 1-based-block matrix type, 0/1
selector algebra and the mask-and-move operation, plain and bias-extended
linear self-attention with constructive capability builders, a ridge
regression oracle (closed form and gradient descent), in-context descent
pipelines expressed as attention programs over one run loop,
one-hidden-layer network components with a ReLU division approximator,
and a Gaussian elimination solver assembled from those components.
"""

from .matrix import (
    BlockSpec,
    DimensionMismatch,
    IndexOutOfRange,
    Matrix,
    ShapeMismatch,
    add,
    block_read,
    block_write,
    eye_block,
    hadamard,
    identity,
    matmul,
    ones,
    scale,
    transpose,
    zeros,
)
from .maskmove import (
    DuplicateTargetColumn,
    DuplicateTargetRow,
    IndexPairSet,
    MaskSpec,
    MskMovSpec,
    SpecOutOfRange,
    mask_matrix,
    mskmov,
    mskmov_selectors,
    selector_v,
    selector_w,
)
from .attention import (
    CompiledHead,
    ElsaParams,
    EmptyHeads,
    LsaParams,
    MatmulConstruction,
    compile_head,
    compiled_forward,
    const_params,
    elsa_forward,
    lsa_forward,
    matmul_params_v1,
    matmul_params_v2,
    multihead_forward,
    skip_params,
)
from .ridge import (
    BadProblemFile,
    RidgeProblem,
    SingularSystem,
    contraction,
    gd_run,
    gd_step,
    gradient,
    load_problem,
    make_problem,
    predict,
    problem_from_json,
    problem_to_json,
    ridge_closed_form,
    stable_eta_for,
)
from .pipeline import (
    DesignedLayout,
    EnumeratedLayout,
    LayoutMismatch,
    PipelineRun,
    PipelineState,
    Program,
    build_designed_input,
    build_designed_weights,
    build_enumerated_input,
    build_enumerated_weights,
    extract_w,
    readout,
    run_pipeline,
    run_program,
    step,
    wrap_designed_as_elsa,
)
from .netcomp import (
    DEFAULT_KNOT_SPEC,
    BadKnotSpec,
    NetworkComponent,
    PiecewiseInvSqr,
    approx_reciprocal,
    build_invsqr,
    component_forward,
    default_invsqr,
    invsqr_eval,
    make_affine_component,
    make_divider_component,
    make_mask_component,
    skip_mul,
)
from .gauss import (
    PIVOT_TOLERANCE,
    BadSystemFile,
    EliminationState,
    LinearSystem,
    PivotBelowTolerance,
    SingularDetected,
    backward_substitute_step,
    embed_system,
    forward_eliminate_step,
    load_system,
    ridge_via_gauss,
    solve,
    system_from_json,
    system_to_json,
)

__version__ = "0.1.0"
