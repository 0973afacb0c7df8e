"""What the tests read that no command does: models built by hand, from a
sampler state or from given topic rows, and one correlation of a table."""

import numpy as np

from priorlda.priors import TopicKind
from priorlda.sampler import FittedModel, _point_estimates


def estimate(state, prior, alpha, vocabulary):
    """The point estimates of the current sample as a model, as ``fit`` makes
    them after its last sweep, with an empty trace and no config."""
    beta, theta = _point_estimates(state, prior, alpha)
    return FittedModel(beta_hat=beta, theta_hat=theta, kinds=prior.kinds,
                       loglik_trace=np.empty(0), vocabulary=vocabulary)


def row_model(rows, vocabulary):
    """A model of TF-IDF topics whose ``beta_hat`` is ``rows``, one per topic,
    over ``vocabulary``, with one uniform document."""
    beta = np.asarray(rows, dtype=np.float64)
    k_total = beta.shape[0]
    return FittedModel(beta_hat=beta, theta_hat=np.full((1, k_total), 1 / k_total),
                       kinds=(TopicKind.TFIDF,) * k_total, loglik_trace=np.empty(0),
                       vocabulary=vocabulary)


def correlation(data, metric, axis):
    """The Spearman rho of ``metric`` against ``axis`` in ``data.correlations``."""
    (rho,) = [c["spearman"] for c in data.correlations
              if c["metric"] == metric and c["axis"] == axis]
    return rho
