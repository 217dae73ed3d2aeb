"""Joint Bayesian modeling of paired continuous and binary responses via a
latent Gaussian variable, with an efficient leave-one-out Gibbs sampler.

The API is the submodules (blqq.model, blqq.sampler, blqq.io, ...); the
package itself re-exports nothing."""

__version__ = "0.1.0"
