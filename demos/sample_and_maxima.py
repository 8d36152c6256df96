"""Draw replicas of a scale-decorated process and check the max law.

The basic process puts a unit atom at every Poisson point with stable
intensity, so the largest modulus across a replica is Frechet distributed.
The script samples ten thousand replicas, prints a few of them, and runs a
one-sample KS test against the analytic law.
"""

import numpy as np

from stablepp import (
    DecorationSpec,
    ExtremeLaw,
    ProcessSource,
    ProcessSpec,
    ks_censored,
    maxmod_samples,
    run_campaign,
)


def main():
    spec = ProcessSpec("scdppp", 1.0, DecorationSpec.dirac([(1.0, 1)]), 0.05)
    print(f"process: {spec.family}, alpha = {spec.alpha}, window = {spec.window}")

    campaign = run_campaign(ProcessSource(spec), master_seed=0, n_reps=10_000)
    for i in range(3):
        m = campaign.replica_measure(i)
        locs = ", ".join(f"{x:.3f}" for x, _ in sorted(m.atoms())[:6])
        print(f"replica {i}: {m.n_atoms} atoms, maxmod {m.maxmod():.3f}, "
              f"smallest [{locs}, ...]")

    mm = maxmod_samples(spec, 10_000, seed=0)
    # a window below every sample censors nothing: the plain one-sample KS test
    d, p = ks_censored(mm, lambda x: np.exp(-1.0 / np.asarray(x)), 0.5 * mm.min())
    print(f"\nmaxmod sample vs unit Frechet: KS = {d:.4f}, p = {p:.3f}")
    for q in (0.25, 0.5, 0.9):
        emp = float(np.quantile(mm, q))
        exact = 1.0 / -np.log(q)
        print(f"  quantile {q}: empirical {emp:.3f}, analytic {exact:.3f}")
    print(f"  P(maxmod <= 2) analytic: {ExtremeLaw('scale', 1.0, 1.0).cdf(2.0):.4f}, "
          f"empirical: {float(np.mean(mm <= 2.0)):.4f}")


if __name__ == "__main__":
    main()
