"""Synthetic chemogenomics dataset (chembl_20 stand-in).

The paper's BPMF experiment uses the ``chembl_20`` compound-on-target
activity matrix (ExaScience BPMF).  That dataset cannot be shipped here,
so :func:`synthetic_chembl` generates a sparse matrix with the same
dimensions and density as the published chembl_20 IC50 subset
(≈15 073 compounds × 346 targets, ≈1.1 % observed): a low-rank
ground-truth factor model plus noise, which gives the Gibbs sampler the
same per-iteration arithmetic and the allgather the same message sizes —
the two properties the Fig 12 comparison depends on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SyntheticActivity", "synthetic_chembl"]


@dataclass(frozen=True)
class SyntheticActivity:
    """A synthetic sparse activity matrix plus its generator metadata.

    Attributes
    ----------
    matrix:
        CSR matrix, shape (compounds, targets); explicit entries are
        observed activities (pIC50-like, ~N(6.5, 1.5²)).
    latent_dim:
        Rank of the generating factor model.
    """

    matrix: scipy.sparse.csr_matrix
    latent_dim: int
    seed: int

    @property
    def num_compounds(self) -> int:
        """Rows (compounds / 'movies' in BPMF terminology)."""
        return self.matrix.shape[0]

    @property
    def num_targets(self) -> int:
        """Columns (targets / 'users')."""
        return self.matrix.shape[1]

    @property
    def nnz(self) -> int:
        """Observed entries."""
        return self.matrix.nnz

    @property
    def density(self) -> float:
        """Fraction of observed entries."""
        return self.nnz / (self.num_compounds * self.num_targets)

    def train_test_split(self, test_fraction: float = 0.2):
        """Deterministically split observations into train/test CSRs."""
        if not 0.0 < test_fraction < 1.0:
            raise ValueError("test_fraction must be in (0, 1)")
        coo = self.matrix.tocoo()
        rng = np.random.default_rng(self.seed + 1)
        mask = rng.random(coo.nnz) < test_fraction
        shape = self.matrix.shape
        test = type(self.matrix)(
            (coo.data[mask], (coo.row[mask], coo.col[mask])), shape=shape
        )
        train = type(self.matrix)(
            (coo.data[~mask], (coo.row[~mask], coo.col[~mask])), shape=shape
        )
        return train, test


def synthetic_chembl(
    n_compounds: int = 15073,
    n_targets: int = 346,
    density: float = 0.011,
    latent_dim: int = 10,
    noise: float = 0.8,
    seed: int = 42,
) -> SyntheticActivity:
    """Generate a chembl_20-like sparse activity matrix.

    A rank-``latent_dim`` ground truth ``U·Vᵀ`` is sampled, shifted to a
    pIC50-like scale, observed at ``density`` uniformly at random, and
    perturbed with Gaussian noise — so BPMF can actually recover signal
    (tests assert falling training RMSE).
    """
    if not 0 < density <= 1:
        raise ValueError("density must be in (0, 1]")
    from scipy.sparse import csr_matrix
    rng = np.random.default_rng(seed)
    nnz = int(round(density * n_compounds * n_targets))
    rows = rng.integers(0, n_compounds, size=nnz)
    cols = rng.integers(0, n_targets, size=nnz)
    u = rng.standard_normal((n_compounds, latent_dim)) / np.sqrt(latent_dim)
    v = rng.standard_normal((n_targets, latent_dim)) / np.sqrt(latent_dim)
    vals = (
        6.5
        + 1.5 * np.einsum("ij,ij->i", u[rows], v[cols])
        + noise * rng.standard_normal(nnz)
    )
    matrix = csr_matrix(
        (vals, (rows, cols)), shape=(n_compounds, n_targets)
    )
    matrix.sum_duplicates()
    return SyntheticActivity(matrix=matrix, latent_dim=latent_dim, seed=seed)
