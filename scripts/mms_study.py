"""Convergence study against the manufactured upgoing-mode solution.

Runs dyadic mesh refinements on a flat and a wavy surface and prints the
error table with observed orders (expected: 1 in H1, 2 in L2 for P1).
"""

import argparse

from elastodtn.model import Geometry, cosine_surface, flat_surface, make_params
from elastodtn.verify import convergence_slopes, mms_convergence


def run(kind: str, omega: float, levels: int) -> None:
    if kind == "flat":
        surf = flat_surface(0.25, 0.2, 0.3, period=3.0)
    else:
        surf = cosine_surface(0.25, [0.04], [1], [0.0], 0.2, 0.3, period=3.0)
    geom = Geometry(surface=surf, h=1.25)
    p = make_params(1.0, 1.0, omega)
    table = mms_convergence(p, geom, levels)
    print(f"\n--- {kind} surface, omega = {omega} ---")
    print(f"{'mesh size':>12s} {'H1 error':>12s} {'L2 error':>12s} "
          f"{'solver':>7s} {'iters':>5s} {'n_max':>5s}")
    for row in table:
        print(f"{row['mesh_size']:12.5g} {row['h1_error']:12.5g} "
              f"{row['l2_error']:12.5g} {row['solver']:>7s} "
              f"{row['iterations']:5d} {row['n_max']:5d}")
    print("observed H1 orders:", [round(s, 3) for s in
                                  convergence_slopes(table, "h1_error")])
    print("observed L2 orders:", [round(s, 3) for s in
                                  convergence_slopes(table, "l2_error")])


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--omega", type=float, default=4.0)
    ap.add_argument("--levels", type=int, default=4)
    args = ap.parse_args()
    for kind in ("flat", "wavy"):
        run(kind, args.omega, args.levels)


if __name__ == "__main__":
    main()
