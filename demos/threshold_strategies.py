"""Compare the partition strategies on a bimodal loss distribution.

Run with: python demos/threshold_strategies.py
"""

import numpy as np

from queryfilter import dividing_point, fit_em_gmm, partition

rng = np.random.default_rng(1)

# Scores as they typically come out of the scoring stage: a tight cluster of
# query-like comments and a broad cluster of everything else, 60/40.
qualified = rng.normal(1.2, 0.3, 600)
unqualified = rng.normal(4.0, 0.8, 400)
losses = np.abs(np.concatenate([qualified, unqualified]))
ids = [f"c{i}" for i in range(len(losses))]

fit = fit_em_gmm(losses)
print("EM mixture fit:")
print(f"  qualified   ~ N({fit.mu_q:.3f}, {fit.sigma_q:.3f}^2)  weight {fit.pi:.3f}")
print(f"  unqualified ~ N({fit.mu_uq:.3f}, {fit.sigma_uq:.3f}^2)")
print(f"  log-likelihood improved over {len(fit.loglik_trace)} iterations")
cut = dividing_point(fit.pi, fit.mu_q, fit.sigma_q, fit.mu_uq, fit.sigma_uq)
print(f"  dividing point (posterior = 0.5): {cut:.4f}")
print()

for strategy, kwargs in [
    ("gmm", {}),
    ("percentile", {"p": 0.5}),
    ("percentile", {"p": 1.0}),  # keep everything = rule-filter-only ablation
]:
    _, report = partition(ids, losses, strategy=strategy, **kwargs)
    label = strategy + (f"({kwargs['p']})" if "p" in kwargs else "")
    print(
        f"  {label:16} retained {report['n_retained']:5d}"
        f"  ({100 * report['retained_fraction']:5.1f}%)"
    )

print()
print("true qualified fraction in the synthetic data: 60.0%")
