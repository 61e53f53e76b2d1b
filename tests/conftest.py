import numpy as np
import pytest

from weylcheck.geometry import GridMask


def random_mask(seed, dims=(20, 20), fill=0.55, h=1.0):
    """Nonempty random Bernoulli mask on a small lattice."""
    rng = np.random.default_rng(seed)
    interior = rng.random(dims) < fill
    if not interior.any():
        interior[dims[0] // 2, dims[1] // 2] = True
    return GridMask(h, (0.0, 0.0), dims, interior)


def one_buckling_value_too_many(monkeypatch, source):
    """Patch the counting source class ``source`` to count one buckling
    value too many at lambda = 1, below every value of the unit square's
    three problems: the chain breaks there, and so does superadditivity
    over two non-empty parts (a parts' sum of 2 above the whole's 1)."""
    real = source.count
    monkeypatch.setattr(source, "count", lambda self, problem, lam: real(
        self, problem, lam) + int(problem == "buckling" and lam == 1.0))


@pytest.fixture
def square_mask_64():
    from weylcheck.geometry import DomainSpec, rasterize

    return rasterize(DomainSpec.rectangle(1.0, 1.0), 1.0 / 64)
