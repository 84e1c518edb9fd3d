"""Free quantum evolution on the periodic grid, plus Gaussian references.

Units are chosen so both the particle mass and the quantum of action
are 1, which leaves i d(psi)/dt = -(1/2) d^2(psi)/dx^2. On a periodic
grid the flow is diagonal in Fourier space, so the propagator is exact
per mode: every requested time node is reached in a single spectral
step and there is no accumulation of time stepping error.

The Gaussian wave packets implemented here in closed form serve as the
reference solutions for everything downstream. With
alpha(t) = 1 + i t / (2 sigma0^2) the packet reads

    psi(x, t) = (2 pi sigma0^2)^(-1/4) alpha^(-1/2)
                * exp(-(x - mu0 - p t)^2 / (4 sigma0^2 alpha)
                      + i p (x - mu0) - i p^2 t / 2)

and its density stays Gaussian with variance
sigma0^2 + t^2 / (4 sigma0^2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NodeDetected
from .grid_fields import GridSpec, ensure_decaying, ensure_finite, ensure_normalized

NODE_FLOOR = 1e-60


@dataclass(frozen=True)
class GaussianPacketSpec:
    """Initial width, centre and momentum of a Gaussian packet."""

    sigma0: float = 1.0
    mu0: float = 0.0
    p: float = 0.0

    def __post_init__(self) -> None:
        if not self.sigma0 > 0.0:
            raise ValueError(f"sigma0 must be positive, got {self.sigma0}")


def ensure_wave_density(density: np.ndarray, grid: GridSpec) -> None:
    """Refuse a |psi|^2 that is not, in this order, finite, normalized, at or
    above ``NODE_FLOOR`` (the paper's claim holds in the absence of nodes)
    and decaying at the box edges."""
    ensure_finite(density, "wave density")
    ensure_normalized(density, grid, "wave density")
    floor = float(density.min())
    if floor < NODE_FLOOR:
        raise NodeDetected(f"min |psi|^2 = {floor:.3e} is below the "
                           f"node floor {NODE_FLOOR:.1e}")
    ensure_decaying(density, grid, "wave density")


@dataclass(frozen=True)
class WaveField:
    """Normalized, node free wave samples on the space-time grid."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self) -> None:
        g = self.grid
        arr = np.asarray(self.values, dtype=complex)
        if arr.shape != (g.n_t + 1, g.n_x):
            raise ValueError(f"wave field has shape {arr.shape}, "
                             f"expected {(g.n_t + 1, g.n_x)}")
        object.__setattr__(self, "values", arr)
        ensure_wave_density(np.abs(arr) ** 2, g)

    def density(self) -> np.ndarray:
        return np.abs(self.values) ** 2


def free_propagate(psi0: np.ndarray, grid: GridSpec) -> WaveField:
    """Evolve one normalized initial state to every time node at once."""
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (grid.n_x,):
        raise ValueError(f"initial state has shape {psi0.shape}, "
                         f"expected ({grid.n_x},)")
    khat = np.fft.fft(psi0)
    phases = np.exp(-0.5j * grid.wavenumbers**2 * grid.t[:, np.newaxis])
    values = np.fft.ifft(khat[np.newaxis, :] * phases, axis=-1)
    values[0] = psi0  # the t=0 slice is the input itself, not a transform roundtrip
    return WaveField(grid, values)


def gaussian_packet(spec: GaussianPacketSpec, grid: GridSpec) -> WaveField:
    """Closed form packet samples at every node of the grid."""
    x = grid.x[np.newaxis, :]
    t = grid.t[:, np.newaxis]
    alpha = 1.0 + 0.5j * t / spec.sigma0**2
    moving = x - spec.mu0 - spec.p * t
    values = ((2.0 * np.pi * spec.sigma0**2) ** -0.25 / np.sqrt(alpha)
              * np.exp(-moving**2 / (4.0 * spec.sigma0**2 * alpha)
                       + 1j * spec.p * (x - spec.mu0)
                       - 0.5j * spec.p**2 * t))
    return WaveField(grid, values)


def packet_initial(spec: GaussianPacketSpec, grid: GridSpec) -> np.ndarray:
    """t = 0 samples, suitable as input to :func:`free_propagate`."""
    x = grid.x
    return ((2.0 * np.pi * spec.sigma0**2) ** -0.25
            * np.exp(-(x - spec.mu0) ** 2 / (4.0 * spec.sigma0**2)
                     + 1j * spec.p * (x - spec.mu0)))


# Closed form fields and actions of the packet, read by the experiments
# as references and by the mismatched control as its fields.

def packet_mean(spec: GaussianPacketSpec, t):
    return spec.mu0 + spec.p * np.asarray(t, dtype=float)

def packet_sigma_sq(spec: GaussianPacketSpec, t):
    """Density variance sigma0^2 + t^2 / (4 sigma0^2): free spreading."""
    t = np.asarray(t, dtype=float)
    return spec.sigma0**2 + t**2 / (4.0 * spec.sigma0**2)

def normal_density(x, mean, variance):
    """The N(mean, variance) density at x; the arguments broadcast."""
    moving = np.asarray(x, dtype=float) - mean
    return np.exp(-(moving**2) / (2.0 * variance)) / np.sqrt(2.0 * np.pi * variance)

def packet_density(spec: GaussianPacketSpec, x, t):
    return normal_density(x, packet_mean(spec, t), packet_sigma_sq(spec, t))

def packet_phase(spec: GaussianPacketSpec, x, t):
    """Phase matching ``gaussian_packet`` (continuous branch, no wraps)."""
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    var = packet_sigma_sq(spec, t)
    moving = x - spec.mu0 - spec.p * t
    return (moving**2 * t / (8.0 * spec.sigma0**2 * var)
            - 0.5 * np.arctan(t / (2.0 * spec.sigma0**2))
            + spec.p * (x - spec.mu0) - 0.5 * spec.p**2 * t)

def packet_quantum_action(spec: GaussianPacketSpec) -> float:
    """Exact kinetic minus osmotic action over the unit time interval."""
    a = 2.0 * spec.sigma0**2
    return float(spec.p**2 + (1.0 - 2.0 * a * np.arctan(1.0 / a)) / (4.0 * spec.sigma0**2))

def packet_classical_action(spec: GaussianPacketSpec) -> float:
    """Exact kinetic action of the packet's velocity field."""
    a = 2.0 * spec.sigma0**2
    return float(spec.p**2 + (1.0 - a * np.arctan(1.0 / a)) / (4.0 * spec.sigma0**2))

def packet_fisher_action(spec: GaussianPacketSpec) -> float:
    """Exact classical minus quantum action: the osmotic (Fisher) term."""
    return float(0.5 * np.arctan(1.0 / (2.0 * spec.sigma0**2)))
