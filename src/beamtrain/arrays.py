"""Uniform planar arrays, steering vectors and 2-D DFT beam codebooks.

Conventions used throughout the package:
  - array-local frame: boresight along +x, column axis along +y, row axis
    along +z; element (r, c) sits at r*d on the row axis and c*d on the
    column axis, d being half the wavelength at the scene's carrier, where
    the DFT codebooks tile the visible region; elements are flattened as
    e = r*cols + c.
  - a direction is a unit vector; `d @ orientation` turns a world-frame
    direction d into the array-local frame, whose components are the
    direction cosines along the boresight, column and row axes. The package
    forms no angles; a local direction's azimuth is arctan2(d_y, d_x) and
    its elevation arcsin(d_z).
  - `orientation` is the rotation matrix mapping local to world coordinates
    (columns = world images of the local x/y/z axes).
"""

from dataclasses import dataclass, field

import numpy as np

SPEED_OF_LIGHT = 299792458.0


def wavelength(carrier_hz: float) -> float:
    return SPEED_OF_LIGHT / carrier_hz


@dataclass(frozen=True)
class ArrayGeometry:
    """Geometry of a rows x cols uniform planar array, elements lambda/2 apart."""

    rows: int
    cols: int
    orientation: np.ndarray = field(default_factory=lambda: np.eye(3))

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("array must have at least one row and column")
        R = np.asarray(self.orientation, dtype=float)
        if R.shape != (3, 3):
            raise ValueError("orientation must be a 3x3 rotation matrix")
        if not np.allclose(R @ R.T, np.eye(3), atol=1e-9) or abs(np.linalg.det(R) - 1.0) > 1e-9:
            raise ValueError("orientation must be orthonormal with determinant +1")
        object.__setattr__(self, "orientation", R)

    @property
    def num_elements(self) -> int:
        return self.rows * self.cols


@dataclass(frozen=True)
class Codebook:
    """Ordered set of unit-norm beams; rows of `beams` are the beam vectors."""

    beams: np.ndarray  # (num_beams, num_elements) complex
    kind: str          # "bs" beamformer bank or "ue" combiner bank

    def __post_init__(self):
        if self.kind not in ("bs", "ue"):
            raise ValueError("kind must be 'bs' or 'ue'")
        object.__setattr__(self, "beams", np.asarray(self.beams, dtype=complex))

    @property
    def num_beams(self) -> int:
        return self.beams.shape[0]


def steering_vector(geometry: ArrayGeometry, direction) -> np.ndarray:
    """Unit-norm array response toward a unit vector in the local frame.

    Element (r, c) carries phase -2*pi*d/lambda * (r*u_row + c*u_col) =
    -pi * (r*u_row + c*u_col), (u_row, u_col) = (direction[2], direction[1])
    being the direction cosines along the row/column axes. The carrier
    cancels from d/lambda = 1/2. `direction` may have shape S + (3,); the
    responses then have shape S + (num_elements,), each equal to its own
    call.
    """
    d = np.asarray(direction, dtype=float)
    u_col, u_row = d[..., 1, None, None], d[..., 2, None, None]
    phase = -np.pi * (np.arange(geometry.rows)[:, None] * u_row
                      + np.arange(geometry.cols) * u_col)
    a = np.exp(1j * phase) / np.sqrt(geometry.num_elements)
    return a.reshape(d.shape[:-1] + (geometry.num_elements,))


def _dft_basis(n: int) -> np.ndarray:
    k = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(k, k) / n) / np.sqrt(n)


def dft_codebook(geometry: ArrayGeometry, kind: str) -> Codebook:
    """Critically-sampled 2-D DFT codebook (one beam per element).

    Beam (m_r, m_c) is the Kronecker product of the m_r-th row-DFT column
    and the m_c-th column-DFT column; beams are ordered row-major over
    (m_r, m_c), matching the element flattening e = r*cols + c.
    """
    basis = np.kron(_dft_basis(geometry.rows), _dft_basis(geometry.cols))
    return Codebook(beams=basis.T, kind=kind)


def row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a real (N, 3) array.

    Each row is a stacked vector-vector matmul, which numpy computes as the
    same dot product `np.linalg.norm` takes of one vector, so each norm
    equals its own `np.linalg.norm` bit for bit. `np.linalg.norm(v, axis=1)`
    and `einsum` sum the squares in other orders and differ in the last bit.
    """
    return np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])


def rotation_from_boresight(boresight) -> np.ndarray:
    """Rotation (local -> world) with local +x mapped to `boresight`.

    The column axis is chosen perpendicular to the boresight, along
    +z x boresight (+x x boresight for a vertical boresight); the row axis
    completes the right-handed frame.
    """
    b = np.asarray(boresight, dtype=float)
    b = b / np.linalg.norm(b)
    c = np.cross((0.0, 0.0, 1.0), b)
    if np.linalg.norm(c) < 1e-12:
        c = np.cross((1.0, 0.0, 0.0), b)
    c = c / np.linalg.norm(c)
    r = np.cross(b, c)
    return np.stack([b, c, r], axis=1)
