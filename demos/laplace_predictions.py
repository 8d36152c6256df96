"""Compare Monte Carlo Laplace-functional estimates to closed-form predictions.

Every scale-decorated process satisfies an exponent formula: the scaled
Laplace functional at dilation y equals an expectation of
exp(-y^-alpha W^alpha c_f) over the global scale W, with c_f computed from
the decoration by one-dimensional quadrature. The script runs the default
five-function battery for a process with a random two-point scale and prints
estimates next to predictions.
"""

from stablepp import (
    DecorationSpec,
    GlobalLaw,
    ProcessSpec,
    battery_estimates,
    default_battery,
    default_points,
    predict_scaled_laplace,
)


def main():
    spec = ProcessSpec(
        "sscdppp", 1.0, DecorationSpec.dirac([(1.0, 1), (0.5, 2)]), 0.05,
        law=GlobalLaw.table([1.0, 2.0], [0.5, 0.5]))
    battery = default_battery("scale")
    points = default_points("scale")

    print("estimating with 100000 replicas per point...\n")
    estimates = battery_estimates(spec, battery, points, 100_000, seed=1)

    print(f"{'function':<10}{'y':>6}{'estimate':>12}{'3 s.e.':>10}"
          f"{'predicted':>12}{'gap':>10}")
    for fid in battery:
        # one prediction call covers the whole grid
        pred = predict_scaled_laplace(spec, battery[fid], points)
        for y, value, bound in zip(points, pred.value, pred.error_bound):
            est = estimates[(fid, y)]
            gap = abs(est.value - value)
            flag = "" if gap <= 3 * est.std_error + bound else "  <-- off"
            print(f"{fid:<10}{y:>6}{est.value:>12.5f}{3 * est.std_error:>10.5f}"
                  f"{value:>12.5f}{gap:>10.5f}{flag}")


if __name__ == "__main__":
    main()
