"""Seeded test matrices drawn from a numpy ``Generator``, for the test fixtures only.

c2alg draws its own matrices from ``random.Random`` (``linalg.random_unitary``,
``verify.random_special_orthogonal``). These are the numpy-``Generator``
versions the fixtures were written against, kept so that every fixture keeps
the matrices, and so the bits, it was checked with.
"""

import numpy as np


def random_unitary(nrng, n: int) -> np.ndarray:
    """Haar-distributed n x n unitary drawn from a numpy Generator."""
    Z = nrng.standard_normal((n, n)) + 1j * nrng.standard_normal((n, n))
    Q, R = np.linalg.qr(Z)
    d = np.diag(R)
    return Q * (d / np.abs(d))


def random_special_orthogonal(nrng, n: int) -> np.ndarray:
    Z = nrng.standard_normal((n, n))
    Q, R = np.linalg.qr(Z)
    Q = Q * np.where(np.diag(R) < 0, -1.0, 1.0)
    if np.linalg.det(Q) < 0:
        if n == 1:
            Q = -Q
        else:
            Q[:, [0, 1]] = Q[:, [1, 0]]
    return Q
