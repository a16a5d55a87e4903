import struct

import numpy as np
import pytest

from protfit.corpus import random_coil
from protfit.io import Protein


def random_rotation(seed):
    """Proper rotation matrix from a QR decomposition."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def fibonacci_sphere(n, radius=1.0):
    """n points spread evenly over a sphere of the given radius."""
    golden = (1 + 5 ** 0.5) / 2
    i = np.arange(n)
    z = 1 - (2 * i + 1) / n
    r = np.sqrt(1 - z * z)
    theta = 2 * np.pi * i / golden
    pts = np.stack([r * np.cos(theta), r * np.sin(theta), z], axis=1)
    return radius * pts


def make_coil_protein(n_res, seed, name=None, plddt=None):
    rng = np.random.default_rng(seed)
    coords = random_coil(n_res, rng)
    return Protein(id=name or f"coil{seed}", sequence=rng.integers(0, 20, n_res),
                   ca_coords=coords, plddt=plddt)


def overwrite_checkpoint_value(path, name, bits):
    """Replace the first float32 of tensor ``name`` in an S3FC file with
    the value whose bit pattern is ``bits``."""
    blob = bytearray(path.read_bytes())
    encoded = name.encode("utf-8")
    at = blob.index(struct.pack("<I", len(encoded)) + encoded) + 4 + len(encoded)
    (ndim,) = struct.unpack_from("<I", blob, at)
    at += 4 + 4 * ndim
    struct.pack_into("<I", blob, at, bits)
    path.write_bytes(bytes(blob))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def coil30():
    return make_coil_protein(30, seed=7)
