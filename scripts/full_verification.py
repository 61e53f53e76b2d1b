#!/usr/bin/env python3
"""End-to-end verification run on one domain: counting chain,
superadditivity under a separated split, cube-cover lower bound, heat
trace upper bound, and the tauberian coefficient fit.
"""

import argparse
import math

import numpy as np

from weylcheck.geometry import DomainSpec, cube_cover, load_domain, rasterize
from weylcheck.heat import heat_trace, heat_upper_bound_check, karamata_estimate
from weylcheck.oracles import rectangle_spectrum
from weylcheck.spectral import (
    cube_lower_bound,
    eigenvalue_avoiding_grid,
    solve_all_problems,
    split_separated,
    superadditivity_check,
    verify_chain,
    weyl_constant,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--domain", help="domain JSON file (default: unit square)")
    ap.add_argument("--h", type=float, default=0.05)
    ap.add_argument("--eta", type=float, default=0.25 * math.sqrt(2))
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    spec = load_domain(args.domain) if args.domain else DomainSpec.rectangle(1, 1)
    mask = rasterize(spec, args.h)
    print(f"domain volume {spec.volume:.4f}, "
          f"{int(mask.interior.sum())} interior nodes at h = {args.h:g}")

    # one dense solve of the whole mask serves the chain, its thresholds
    # and the whole side of superadditivity
    spectra = solve_all_problems(mask)
    lams = eigenvalue_avoiding_grid(spectra.merged_values(), 40)
    chain = verify_chain(spectra, lams)
    print(f"counting chain: ok={chain.ok} over {len(lams)} shifts")

    parts = split_separated(mask, args.seed)
    lam = float(lams[len(lams) // 2])
    rep = superadditivity_check(
        spectra, [solve_all_problems(p) for p in parts if p.n_nodes], lam)
    print(f"superadditivity at lam={lam:.3f}: ok={rep.ok} "
          f"({len(parts)} separated parts)")

    cover = cube_cover(spec, args.eta)
    lam_big = 1e6
    bound = cube_lower_bound(cover, lam_big)
    weyl = weyl_constant(2, cover.covered_volume) * lam_big
    print(f"cube cover: {len(cover.corners)} cubes, covered "
          f"{cover.covered_volume:.4f} of {spec.volume:.4f}; "
          f"lower bound {bound} vs Weyl {weyl:.0f} on the covered part")

    ref = rectangle_spectrum(1, 1, 1e6)  # analytic reference for heat checks
    samples = heat_trace(ref, np.logspace(-3, -2, 12), 2, 1.0)
    rows = heat_upper_bound_check(samples)
    fit = karamata_estimate(samples)
    rel = abs(fit.coefficient * 4 * math.pi - 1.0)
    print(f"heat bound on trusted samples: "
          f"{all(r.ok for r in rows if r.trusted)}; "
          f"tauberian coefficient {fit.coefficient:.6f} "
          f"(rel err vs 1/4pi: {rel:.2e})")


if __name__ == "__main__":
    main()
