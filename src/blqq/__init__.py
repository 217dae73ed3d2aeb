"""Joint Bayesian modeling of paired continuous and binary responses via a
latent Gaussian variable, with an efficient leave-one-out Gibbs sampler."""

from .distributions import (
    RandomStream,
    inverse_mills,
    sample_scaled_inv_chi2,
    sample_truncated_normal,
    std_normal_log_cdf,
)
from .model import (
    ChainConfig,
    Dataset,
    Draws,
    EffectOrders,
    HyperState,
    ParameterState,
    PriorConfig,
    draw_columns,
    joint_log_likelihood,
    predict_draws,
)
from .sampler import (
    ChainOutput,
    FullConditionalBeta,
    IllConditionedError,
    SamplerWorkspace,
    compute_beta_full_conditional,
    init_state,
    run_chain,
    sample_beta,
    sample_r_mh,
    sample_rho_mh,
    sample_sigma2_mh,
    sample_tau2,
    sample_u_sweep,
)
from .baselines import fit_sm_b
from .simulate import (
    SimulationScenario,
    gen_ar1_covariance,
    gen_birth_records,
    gen_replicate,
    gen_sparse_coefficients,
)
from .metrics import (
    LossReport,
    PosteriorSummary,
    acf,
    effective_sample_size,
    fsl,
    l2_loss,
    misclassification,
    rmse,
    select_via_ci,
    summarize_draws,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
