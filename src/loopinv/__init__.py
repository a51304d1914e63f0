"""Exact shuffle/concatenation tensor algebra over words, with the
conjugation, loop and closure invariants of path signatures: bases,
dimension tables, identity verification and a piecewise linear
path-signature oracle.  All arithmetic is exact rational."""

from ._rat import BACKEND, Q
from .words import (
    Word,
    lyndon_count,
    lyndon_words,
    necklace_count,
    necklaces,
    repetition_count,
)
from .tensor import (
    TensorElement,
    bracket,
    closing_segment_dual,
    concat,
    concat_truncated,
    deconcat,
    left_closure,
    lyndon_bracketing,
    pair,
    right_closure,
    rotation_sum,
    cyclic_shift,
    shuffle,
    shuffle_power,
    tensor_from_json,
    tensor_to_json,
)
from .linalg import (
    Budget,
    BudgetExceeded,
    Subspace,
    intersect,
    kernel,
    member_tensor,
    orthogonal_complement,
    span,
    span_tensors,
    subspace_sum,
)
from .invariants import (
    ConjectureEvidence,
    CrossCheckError,
    InvariantReport,
    InvariantSpaces,
    LieBasisElement,
    conjecture_evidence,
    inverse_euler_transform,
    invariant_report,
    signed_volume,
    spaces_for,
    verify_relations,
    zero_increment_series_dim,
)
from .paths import (
    FuzzReport,
    PiecewiseLinearPath,
    TruncatedSignature,
    close,
    closing_segment,
    fuzz_closure,
    fuzz_conjugation,
    fuzz_loop,
    path_from_json,
    path_signature,
    path_to_json,
    reverse,
    segment_signature,
    staircase_eval,
)

__version__ = "0.1.0"
