"""Statevector simulator and training toolkit for the hierarchical
quantum control-gate (HQCG) signal classifier."""

from .baseline import MLPModel, build_mlp, mlp_forward_batch, mlp_gradients, \
    mlp_param_count
from .circuit import HQCGModel, ParamCircuit, ParamGate, build_gqcg, build_lqcg, \
    build_model, class_state_matrix, direct_fidelity, format_circuit, forward, \
    forward_batch, swap_test_fidelity
from .data import Dataset, Sample, SyntheticSpec, generate_synthetic, \
    load_dataset, save_dataset, split, stack_samples
from .encoding import amplitude_encode, encode_rows, required_qubits
from .errors import CapacityError, ConfigError, DataFormatError, \
    EmptyDatasetError, EncodingError, HqcgError, NumericError, ShapeError, \
    StateError, UndefinedMetricError
from .grad import batch_loss, finite_diff_oracle, loss_and_gradients
from .qstate import MAX_QUBITS, BasisProjector, Controlled, ControlledSwap, \
    GateOp, Single, Statevector, Swap, apply_gate, inner_product, \
    projector_probability, zero_state
from .train import EpochRecord, Metrics, TrainConfig, TrainReport, accuracy, \
    adamw_step, cosine_lr, evaluate, macro_auc, roc_auc, train_loop, \
    write_curves_csv, write_metrics_json

__version__ = "0.1.0"
