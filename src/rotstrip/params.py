"""Run parameters shared by every module."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Params:
    """Physical and truncation parameters.

    epsilon : Rossby number, in (0, 1].
    nu      : vertical viscosity, in (0, 1].
    beta    : surface stress amplitude, >= 0.
    """

    epsilon: float
    nu: float
    beta: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.epsilon <= 1.0):
            raise ValueError(f"epsilon must lie in (0, 1], got {self.epsilon}")
        if not (0.0 < self.nu <= 1.0):
            raise ValueError(f"nu must lie in (0, 1], got {self.nu}")
        if self.beta < 0.0:
            raise ValueError(f"beta must be nonnegative, got {self.beta}")

    @property
    def eps_nu(self) -> float:
        """Product epsilon*nu, the squared Ekman layer thickness."""
        return self.epsilon * self.nu

    @property
    def layer_scale(self) -> float:
        """Classical layer thickness sqrt(epsilon*nu)."""
        return (self.epsilon * self.nu) ** 0.5

    @property
    def nu_prime(self) -> float:
        """Vertical diffusion coefficient of the eigenbasis, pi^2 * nu."""
        import math

        return math.pi ** 2 * self.nu
