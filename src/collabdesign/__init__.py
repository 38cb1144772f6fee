"""Collaboration-matrix design for distributed detection of signal classes.

A fusion center observes N sensors through an M x N combining matrix W.
This package designs W to maximize the cumulative deflection coefficient of
a finite signal class: exactly via PCA when collaboration is free, and via
penalized sparse designs on the Stiefel manifold when links carry costs. It
also quantifies what universality and sparsity cost, predicts detection
performance, and reproduces the reported trade-off experiments.
"""

__version__ = "0.1.0"

from .design import (
    CollaborationMatrix,
    check_stable_embedding,
    design_cost_free,
    design_diagonal_shortcut,
    design_random,
    random_baseline_prediction,
)
from .detect import DetectionResult, pd_closed_form, simulate_detection
from .errors import (
    CollabDesignError,
    ConfigError,
    NotDiagonal,
    RankDeficient,
    Unachievable,
    ZeroSignalClass,
)
from .experiments import (
    ExperimentTable,
    calibrated_sparse_design,
    max_deactivation_at,
    read_at_deactivation,
    run_detect,
    run_fig2,
    run_fig3,
    run_fig4,
    run_single_design,
)
from .linalg import leading_rows, polar_factor, row_basis
from .metrics import (
    MetricsReport,
    active_link_ratio,
    cost_of_collaboration,
    cost_of_universality,
    cumulative_dc,
    metrics_report,
)
from .model import (
    DesignSpec,
    Penalty,
    SignalClass,
    generate_signal_class,
)
from .persist import (
    read_signals_csv,
    render_csv,
    render_json,
    write_csv,
    write_json,
    write_matrix_csv,
    write_signals_csv,
)
from .runconfig import RunConfig, build_config, load_config, parse_config_text
from .sparse import (
    SolverState,
    SparseSolution,
    calibrate_gamma,
    design_sparse,
    gradient_l0,
    gradient_l1,
    objective_l0,
    objective_l1,
    recover_w,
    solve_gpower,
    solve_path,
)

__all__ = [
    "CollabDesignError",
    "CollaborationMatrix",
    "ConfigError",
    "DesignSpec",
    "DetectionResult",
    "ExperimentTable",
    "MetricsReport",
    "NotDiagonal",
    "Penalty",
    "RankDeficient",
    "RunConfig",
    "SignalClass",
    "SolverState",
    "SparseSolution",
    "Unachievable",
    "ZeroSignalClass",
    "active_link_ratio",
    "build_config",
    "calibrate_gamma",
    "calibrated_sparse_design",
    "check_stable_embedding",
    "cost_of_collaboration",
    "cost_of_universality",
    "cumulative_dc",
    "design_cost_free",
    "design_diagonal_shortcut",
    "design_random",
    "design_sparse",
    "generate_signal_class",
    "gradient_l0",
    "gradient_l1",
    "leading_rows",
    "load_config",
    "max_deactivation_at",
    "metrics_report",
    "objective_l0",
    "objective_l1",
    "parse_config_text",
    "pd_closed_form",
    "polar_factor",
    "random_baseline_prediction",
    "read_at_deactivation",
    "read_signals_csv",
    "recover_w",
    "render_csv",
    "render_json",
    "row_basis",
    "run_detect",
    "run_fig2",
    "run_fig3",
    "run_fig4",
    "run_single_design",
    "simulate_detection",
    "solve_gpower",
    "solve_path",
    "write_csv",
    "write_json",
    "write_matrix_csv",
    "write_signals_csv",
]
