"""Flop- and memory-instrumented recursive MMSE-SIC detection for V-BLAST."""

from .errors import ContractViolationError, SingularMatrixError
from .kernels import (
    FlopLedger,
    HermPacked,
    block_inv_step_i,
    block_inv_step_v,
    deflate_q,
    deflate_q_sm,
    gauss_jordan_inverse,
    herm_rank1_update,
    init_gram,
    init_q_recursive,
    init_q_sherman_morrison,
    sm_rank1_inverse_update,
)
from .sigmodel import (
    ChannelRealization,
    Constellation,
    RxFrame,
    TxFrame,
    constellation,
    demap,
    draw_channel,
    frame_from_bits,
    make_rng,
    quantize,
    random_frame,
    sigma_n2_for_snr_db,
    transmit,
)
from .detectors import (
    ALGORITHMS,
    DETECTOR_NAMES,
    BatchResult,
    DetectionResult,
    MemLedger,
    OrderingTrace,
    detect_fastest_known,
    detect_mem_saving,
    detect_oracle,
    detect_original,
    detect_proposed_1,
    detect_proposed_2,
    detect_proposed_2_noperm,
    detect_proposed_2_tri,
    detect_proposed_2_tri_noperm,
    detect_speed_adv,
    get_detector,
)
from .metering import (
    MODEL_FOR_ALGORITHM,
    TABLE_MODELS,
    ComplexityModel,
    CompareReport,
    compare,
    predict,
    speedup,
)
from .harness import SweepConfig, run_ber, run_equiv, run_flops, run_mem

__version__ = "0.1.0"
