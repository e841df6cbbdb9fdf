"""Frequency sweep of the solution/source norm ratio.

Solves the bump-source problem over a geometric frequency ladder and prints
the ratio ||u||_H1 / ||g||_H1 alongside the cubic envelope anchored at the
smallest frequency.  The fitted log-log slope should stay well below 3.
"""

import argparse

from elastodtn.model import (
    Geometry,
    SourceSpec,
    flat_surface,
    make_source,
)
from elastodtn.verify import SweepConfig, omega_sweep


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--omega-min", type=float, default=2.0)
    ap.add_argument("--omega-max", type=float, default=16.0)
    ap.add_argument("--points", type=int, default=7)
    ap.add_argument("--nx", type=int, default=64)
    ap.add_argument("--ny", type=int, default=96)
    args = ap.parse_args()

    ratio = (args.omega_max / args.omega_min) ** (1.0 / (args.points - 1))
    omegas = tuple(args.omega_min * ratio ** k for k in range(args.points))
    geom = Geometry(surface=flat_surface(0.3, 0.2, 0.4, 1.0), h=1.4)
    spec = SourceSpec(center=(0.5, 0.8), radius=0.15,
                      amplitude=(1.0, 0.5j), period=1.0)
    src = make_source(spec, None, f_max=0.4, h=1.4)
    sw = omega_sweep(SweepConfig(lam=1.0, mu=1.0, omegas=omegas, geom=geom,
                                 source=src, nx=args.nx, ny=args.ny))
    print(f"{'omega':>10s} {'ratio':>12s} {'envelope':>12s} "
          f"{'solver':>7s} {'iters':>5s}")
    for om, r, env, s in zip(sw.omegas, sw.ratios, sw.profile_envelope,
                             sw.solves):
        print(f"{om:10.4f} {r:12.6g} {env:12.6g} {s['solver']:>7s} "
              f"{s['iterations']:5d}")
    print(f"fitted slope (top half): {sw.fitted_slope:.4f}  (bound: 3)")


if __name__ == "__main__":
    main()
