"""Read the stability index off raw samples and off functional curves.

Two independent routes to the same number: the Hill estimator applied to the
upper order statistics of the maxmod sample, and a template fit that checks
whether every Laplace curve is a common shape slid along the scale axis.
The mixture of two different indices defeats the template fit, as it should.
"""

import numpy as np

from stablepp import (
    DecorationSpec,
    ExtremeLaw,
    ProcessSpec,
    fit_scale_template,
    maxmod_samples,
    scale_unique_support_test,
    tail_index_estimate,
)


def main():
    for alpha in (1.0, 2.0):
        spec = ProcessSpec("scdppp", alpha,
                           DecorationSpec.dirac([(1.0, 1)]), 0.05)
        mm = maxmod_samples(spec, 100_000, seed=5)
        est = tail_index_estimate(mm[mm > 0.0])
        print(f"alpha = {alpha}: Hill estimate {est.alpha_hat:.3f} "
              f"+/- {est.ci_half_width:.3f} from k = {est.k} exceedances")

    print("\ntemplate fit on the alpha = 1 battery curves:")
    spec = ProcessSpec("scdppp", 1.0, DecorationSpec.dirac([(1.0, 1)]), 0.05)
    report = scale_unique_support_test(spec, n_reps=30_000, seed=9)
    for s in report.subchecks:
        print(f"  {s.name}: residual {s.statistic:.5f}  ({s.note})")
    print(f"  verdict: {'PASS' if report.passed else 'REJECT'}")

    print("\nmixture of indices against both pure templates:")
    ys = np.array([0.5, 1.0, 2.0, 4.0])
    mixed = 0.5 * (np.exp(-1.0 / ys) + np.exp(-1.0 / ys ** 2))
    ses = np.full(4, 1.5e-3)
    for alpha in (1.0, 2.0):
        template = ExtremeLaw("scale", alpha, 1.0).cdf
        c_hat, residual, pooled = fit_scale_template(ys, mixed, ses, template)
        print(f"  alpha = {alpha} template: best c = {c_hat:.3f}, "
              f"residual {residual:.4f} = {residual / pooled:.0f}x pooled s.e.")


if __name__ == "__main__":
    main()
