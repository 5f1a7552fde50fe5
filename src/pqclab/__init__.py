"""pqclab: simulation and verification workbench for private quantum channels."""

from .qmath import (
    ALGEBRA_TOL,
    ENTROPY_TOL,
    EIGENVALUE_CLIP,
    SIGMA,
    DensityOp,
    Ket,
    SystemLayout,
    UnitaryOp,
    local_transition,
    partial_trace,
    pauli_string,
    purify,
    schmidt_decompose,
    trace_distance,
)
from .entropy import (
    ProbabilityDist,
    check_correlation_bounds,
    check_entropy_inequalities,
    entanglement_measure,
    mutual_information,
    relative_entropy,
    shannon_entropy,
    von_neumann,
)
from .protocols import (
    ChannelProtocol,
    GateList,
    ProtocolVerificationError,
    ResourceReport,
    SharedResource,
    build_classical_otp,
    build_epr_keyed_otp,
    build_quantum_otp,
    build_superdense,
    build_teleportation,
    encode,
    epr_block,
    load_protocol,
    resource_report,
    save_protocol,
    verify_correctness,
    verify_security,
)
from .reductions import (
    BoundAudit,
    ObliviousnessError,
    ObliviousRsp,
    audit_classical_input,
    audit_quantum_input,
    lift_extra_comm,
    lift_extra_epr,
    rsp_to_pqc,
    teleportation_rsp,
)

__version__ = "0.1.0"
