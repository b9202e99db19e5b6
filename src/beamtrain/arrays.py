"""Uniform planar arrays, steering vectors and 2-D DFT beam codebooks.

Conventions used throughout the package:
  - array-local frame: boresight along +x, column axis along +y, row axis
    along +z; element (r, c) sits at r*d on the row axis and c*d on the
    column axis; elements are flattened as e = r*cols + c.
  - azimuth/elevation are measured in the array-local frame; the direction
    unit vector is (cos(el)cos(az), cos(el)sin(az), sin(el)).
  - `orientation` is the rotation matrix mapping local to world coordinates
    (columns = world images of the local x/y/z axes).
"""

from dataclasses import dataclass, field

import numpy as np

SPEED_OF_LIGHT = 299792458.0
DEFAULT_CARRIER_HZ = 28e9


def wavelength(carrier_hz: float = DEFAULT_CARRIER_HZ) -> float:
    return SPEED_OF_LIGHT / carrier_hz


@dataclass(frozen=True)
class ArrayGeometry:
    """Geometry of a rows x cols uniform planar array."""

    rows: int
    cols: int
    element_spacing: float = wavelength() / 2.0
    orientation: np.ndarray = field(default_factory=lambda: np.eye(3))
    reference_position: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("array must have at least one row and column")
        R = np.asarray(self.orientation, dtype=float)
        p = np.asarray(self.reference_position, dtype=float)
        if R.shape != (3, 3):
            raise ValueError("orientation must be a 3x3 rotation matrix")
        if not np.allclose(R @ R.T, np.eye(3), atol=1e-9) or abs(np.linalg.det(R) - 1.0) > 1e-9:
            raise ValueError("orientation must be orthonormal with determinant +1")
        object.__setattr__(self, "orientation", R)
        object.__setattr__(self, "reference_position", p)

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


def steering_vector(geometry: ArrayGeometry, azimuth, elevation,
                    carrier_hz: float = DEFAULT_CARRIER_HZ) -> np.ndarray:
    """Unit-norm array response for a direction given in the local frame.

    Element (r, c) carries phase -2*pi*d/lambda * (r*u_row + c*u_col) with
    (u_row, u_col) the direction cosines along the row/column axes.
    `azimuth` and `elevation` may be arrays of one shape S; the responses
    then have shape S + (num_elements,), each equal to its own call.
    """
    u_col = np.cos(elevation) * np.sin(azimuth)
    u_row = np.sin(elevation)
    d_over_lam = geometry.element_spacing / wavelength(carrier_hz)
    r = np.arange(geometry.rows)[:, None]
    c = np.arange(geometry.cols)[None, :]
    shape = np.shape(u_row)
    phase = -2.0 * np.pi * d_over_lam * (r * np.reshape(u_row, shape + (1, 1))
                                         + c * np.reshape(u_col, shape + (1, 1)))
    a = np.exp(1j * phase) / np.sqrt(geometry.num_elements)
    return a.reshape(shape + (geometry.num_elements,))


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


def beam_direction_cosines(geometry: ArrayGeometry) -> np.ndarray:
    """Per-beam (u_row, u_col) steering directions, wrapped into [-1, 1).

    Valid for half-wavelength spacing where DFT beam m points at the
    direction cosine 2m/N (mod 2).
    """
    def grid(n):
        u = 2.0 * np.arange(n) / n
        return np.where(u >= 1.0, u - 2.0, u)

    u_row = grid(geometry.rows)
    u_col = grid(geometry.cols)
    rr, cc = np.meshgrid(u_row, u_col, indexing="ij")
    return np.stack([rr.reshape(-1), cc.reshape(-1)], axis=1)


def nearest_beam_index(geometry: ArrayGeometry, u_row: float, u_col: float) -> int:
    """Index of the DFT beam whose steering direction is nearest in wrapped
    direction-cosine distance (per axis; the 2-D response factorizes)."""
    m_r = int(np.round(u_row * geometry.rows / 2.0)) % geometry.rows
    m_c = int(np.round(u_col * geometry.cols / 2.0)) % geometry.cols
    return m_r * geometry.cols + m_c


def row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a real (N, 3) array.

    Each row is a stacked vector-vector matmul, which numpy computes as the
    same dot product `np.linalg.norm` takes of one vector, so each norm
    equals its own `np.linalg.norm` bit for bit. `np.linalg.norm(v, axis=1)`
    and `einsum` sum the squares in other orders and differ in the last bit.
    """
    return np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])


def direction_angles(unit: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(azimuth, elevation) of each row of an (N, 3) array of unit vectors."""
    return np.arctan2(unit[:, 1], unit[:, 0]), np.arcsin(np.clip(unit[:, 2], -1.0, 1.0))


def local_angles(geometry: ArrayGeometry, directions_world: np.ndarray):
    """(azimuth, elevation) arrays in the array-local frame of the rows of
    an (N, 3) array of world directions."""
    d = directions_world / row_norms(directions_world)[:, None]
    return direction_angles(d @ geometry.orientation)


def world_to_local_angles(geometry: ArrayGeometry, direction_world) -> tuple[float, float]:
    """(azimuth, elevation) in the array-local frame of a world direction."""
    azimuth, elevation = local_angles(geometry, np.asarray(direction_world, dtype=float).reshape(1, 3))
    return float(azimuth[0]), float(elevation[0])


def rotation_from_boresight(boresight, col_axis_hint=(0.0, 0.0, 1.0)) -> np.ndarray:
    """Rotation (local -> world) with local +x mapped to `boresight`.

    The column axis is chosen perpendicular to the boresight, close to
    hint x boresight; the row axis completes the right-handed frame.
    """
    b = np.asarray(boresight, dtype=float)
    b = b / np.linalg.norm(b)
    hint = np.asarray(col_axis_hint, dtype=float)
    c = np.cross(hint, b)
    if np.linalg.norm(c) < 1e-12:
        c = np.cross((1.0, 0.0, 0.0), b)
    c = c / np.linalg.norm(c)
    r = np.cross(b, c)
    return np.stack([b, c, r], axis=1)
