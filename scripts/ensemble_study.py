"""Monte Carlo ensemble over random surfaces with the mean-square envelope.

Draws N seeded surface samples, solves the pulled-back problem for each, and
checks the mean-square norm bound with a single constant anchored on the
deterministic reference solve at the smallest frequency.  Per frequency it
also prints the samples' GMRES iteration range and how many fell back to LU.
"""

import argparse

from elastodtn.fem import assemble_B, assemble_load, solve
from elastodtn.mesh import build_mesh
from elastodtn.model import (
    RandomSurfaceModel,
    SourceSpec,
    flat_surface,
    make_params,
    make_source,
)
from elastodtn.montecarlo import run_ensemble, meansquare_envelope_check
from elastodtn.verify import bound_profile, source_norms


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--samples", type=int, default=32)
    ap.add_argument("--parallelism", type=int, default=4)
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--omegas", type=float, nargs="+",
                    default=[2.0, 4.0, 8.0])
    args = ap.parse_args()

    f0 = flat_surface(0.3, 0.2, 0.4, 1.0)
    model = RandomSurfaceModel(f0=f0, mode_count=2, amplitudes=(0.02, 0.01),
                               phases=(0.0, 1.3), M0=0.3, seed=args.seed)
    spec = SourceSpec(center=(0.5, 0.8), radius=0.15,
                      amplitude=(1.0, 0.5j), period=1.0)
    mesh = build_mesh(f0, 1.4, 32, 48)
    l0 = f0.lipschitz + model.norm_bound

    # anchor the envelope constant on the deterministic solve at omega_min
    om0 = min(args.omegas)
    p0 = make_params(1.0, 1.0, om0)
    src0 = make_source(spec, None, f_max=0.4, h=1.4)
    sol0 = solve(assemble_B(mesh, p0), assemble_load(mesh, src0))
    prof0 = bound_profile(om0, 1.4, 0.2, l0)
    gn = source_norms(mesh, src0)["h1"]
    calibrated = 2.0 * prof0.anchor_constant(sol0.norms["h1"], gn)
    print(f"anchored constant: {calibrated:.4e}")

    for om in args.omegas:
        p = make_params(1.0, 1.0, om)
        res = run_ensemble(model, spec, p, mesh, args.samples,
                           parallelism=args.parallelism)
        prof = bound_profile(om, 1.4, 0.2, l0)
        chk = meansquare_envelope_check(res, prof, calibrated)
        print(f"omega={om:6.2f}  mean||u~||^2={res.mean_u_sq:.6e} "
              f"(se {res.se_u_sq:.1e})  envelope={chk['rhs']:.4e}  "
              f"ok={chk['ok']}")
        # every sample fallen back to LU is counted, so none goes unseen
        its = [r["iterations"] for r in res.per_sample]
        fallbacks = sum(r["solver"] != "gmres" for r in res.per_sample)
        print(f"omega={om:6.2f}  gmres iterations {min(its)}-{max(its)}  "
              f"lu fallbacks {fallbacks}/{len(its)}")


if __name__ == "__main__":
    main()
