"""Tour of the SPD-matrix geometry underneath the tangent-space featurizer.

Covariance matrices live on the manifold of symmetric positive-definite
matrices.  This script walks through the building blocks: spectral matrix
functions, the affine-invariant distance, the Karcher (geometric) mean,
and the tangent-space projection whose vector norm reproduces geodesic
distance exactly.

Run:  python3 demos/01_spd_geometry.py
"""
import errpkit  # noqa: F401  # first: it pins BLAS to one thread before numpy loads

import numpy as np

from errpkit import manifold

rng = np.random.default_rng(7)


def random_spd(d, cond=20.0):
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    eig = np.geomspace(1.0 / np.sqrt(cond), np.sqrt(cond), d)
    return (q * eig) @ q.T


# ---------------------------------------------------------------------------
# Matrix functions: log / exp / sqrt are spectral, so they commute with
# congruence by orthogonal matrices and invert each other exactly.
# ---------------------------------------------------------------------------
a = random_spd(6)
roundtrip = manifold.mat_exp(manifold.mat_log(a))
print("exp(log(A)) reconstruction error:",
      np.linalg.norm(roundtrip - a) / np.linalg.norm(a))

s = manifold.mat_sqrt(a)
print("sqrt(A) @ sqrt(A) error:", np.linalg.norm(s @ s - a) / np.linalg.norm(a))

# ---------------------------------------------------------------------------
# The affine-invariant distance is invariant under any change of basis
# W (not just rotations) applied to both matrices at once.  That is what
# makes covariance comparisons robust to linear sensor mixing.
# ---------------------------------------------------------------------------
b = random_spd(6)
w = rng.standard_normal((6, 6)) / np.sqrt(6)
d_plain = manifold.airm_distance(a, b)
d_mixed = manifold.airm_distance(w.T @ a @ w, w.T @ b @ w)
print(f"distance {d_plain:.6f} vs after mixing {d_mixed:.6f} "
      f"(difference {abs(d_plain - d_mixed):.2e})")

# ---------------------------------------------------------------------------
# The geometric mean of two matrices is the geodesic midpoint, for which a
# closed form exists; the iterative Karcher mean must land on it.
# ---------------------------------------------------------------------------
isq = manifold.mat_invsqrt(a)
midpoint = manifold.mat_sqrt(a) @ manifold.mat_sqrt(isq @ b @ isq) @ manifold.mat_sqrt(a)
karcher = manifold.geometric_mean(np.stack([a, b]), tol=1e-11, max_iter=200).mean
print("pair mean vs closed-form midpoint:", np.linalg.norm(karcher - midpoint))

mats = np.stack([random_spd(6) for _ in range(12)])
g = manifold.geometric_mean(mats).mean
logs = [manifold.mat_log(manifold.mat_invsqrt(g) @ c @ manifold.mat_invsqrt(g)) for c in mats]
print("Karcher residual at the mean:", np.linalg.norm(np.mean(logs, axis=0)))

# ---------------------------------------------------------------------------
# Tangent projection turns matrices into plain vectors while preserving
# the metric at the base point: vector norm == geodesic distance.  This is
# what lets an ordinary linear classifier operate on covariance features.
# ---------------------------------------------------------------------------
v = manifold.tangent_project(b, g)
print("tangent vector length:", v.shape[0], f"(= d(d+1)/2 for d={b.shape[0]})")
print("norm vs distance:", np.linalg.norm(v), manifold.airm_distance(g, b))
print("at d=96 (the shape used on 32-channel super trials):",
      manifold.tangent_dim(96), "coordinates")
