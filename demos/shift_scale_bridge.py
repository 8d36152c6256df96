"""Walk a process across the exp/log bridge between carriers.

Shift-decorated processes on the line and scale-decorated processes on the
punctured line are the same objects seen through exp and log. The script
maps a spec both ways, transports sampled measures, and shows the image of
the Frechet max law landing on Gumbel.
"""

import math

import numpy as np

from stablepp import (
    DecorationSpec,
    ProcessSource,
    ProcessSpec,
    exp_transform,
    ks_censored,
    log_transform,
    map_process_spec,
    maxmod_samples,
    normalization_shift,
    run_campaign,
)


def main():
    scale_spec = ProcessSpec("scdppp", 1.0, DecorationSpec.dirac([(1.0, 1)]), 0.05)
    shift_spec = map_process_spec(scale_spec)
    print(f"{scale_spec.family}(alpha={scale_spec.alpha}) maps to "
          f"{shift_spec.family}(c={shift_spec.alpha}), "
          f"window {scale_spec.window} -> {shift_spec.window:.4f}")
    print(f"normalization shift log(c)/c = {normalization_shift(1.0)}")
    back = map_process_spec(shift_spec)
    print(f"mapping back gives {back.family}, window {back.window:.4f}\n")

    campaign = run_campaign(ProcessSource(scale_spec), 5, 3)
    for i in range(3):
        n = campaign.replica_measure(i)
        t = log_transform(n)
        big = max(x for x, _ in n.atoms())
        print(f"replica {i}: maxmod {n.maxmod():.4f}, image max location "
              f"{t.max_location():.4f} = log {big:.4f}")

    # integer locations survive the shift -> scale -> shift trip bit-exactly
    from stablepp import ShiftPointMeasure
    t = ShiftPointMeasure([-30.0, -3.0, 0.0, 7.0, 30.0], [1, 2, 1, 1, 1])
    assert log_transform(exp_transform(t)).to_json_line() == t.to_json_line()
    print("\ninteger-location roundtrip: bit-exact")

    mm = maxmod_samples(scale_spec, 10_000, seed=19)
    image_max = np.log(mm[mm > 0.0])
    # a window below every sample censors nothing: the plain one-sample KS test
    d, p = ks_censored(image_max, lambda x: np.exp(-np.exp(-np.asarray(x))),
                       image_max.min() - 1.0)
    print(f"log of Frechet maxima vs standard Gumbel: KS = {d:.4f}, p = {p:.3f}")
    print(f"  median: empirical {float(np.median(image_max)):.4f}, "
          f"analytic {-math.log(math.log(2.0)):.4f}")


if __name__ == "__main__":
    main()
