"""Spectra of the Dirichlet Laplacian, buckling problem, and Dirichlet
bilaplacian on finite-volume planar domains, with exact checks of the
counting-function chain, superadditivity, the cube-cover lower bound,
heat-trace bounds, and tauberian recovery of the Weyl coefficient."""

from .geometry import (
    CubeCover,
    DomainSpec,
    GridMask,
    cube_cover,
    distance_to_complement,
    inner_domain,
    load_domain,
    load_mask,
    membership,
    rasterize,
)
from .discretization import (
    OperatorPencil,
    SymmetricOperator,
    assemble_buckling_pencil,
    assemble_clamped_bilaplacian,
    assemble_dirichlet_laplacian,
    extension_laplacian_factor,
)
from .eigensolve import (
    Spectrum,
    dense_spectrum,
    generalized_spectrum,
    inertia_count,
    lowest_k,
)
from .oracles import (
    bessel_j_series,
    disk_spectrum,
    interval_spectrum,
    rectangle_spectrum,
)
from .spectral import (
    counting,
    cube_lower_bound,
    superadditivity_check,
    verify_chain,
    weyl_constant,
    weyl_ratio_curve,
)
from .heat import (
    HeatTraceSamples,
    WeylEstimate,
    heat_trace,
    heat_upper_bound_check,
    karamata_estimate,
    laplace_identity_check,
)

__all__ = [name for name in dir() if not name.startswith("_")]
