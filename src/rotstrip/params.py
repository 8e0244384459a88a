"""Run parameters shared by every module, and the number checks of options."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def _finite(key: str, value, least: float = -math.inf) -> float:
    """float(value), if that is a finite number >= least; anything else
    raises ValueError naming key."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = math.nan
    if not (math.isfinite(number) and number >= least):
        bound = "" if least == -math.inf else f" >= {least:g}"
        raise ValueError(f"{key}={value!r} must be a finite number{bound}")
    return number


def _is_integer(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_integer(key: str, value, least: int | None = None):
    """value, if it is an integer (a bool is not one) of at least `least`;
    anything else raises ValueError naming key: an integer option is
    rejected, not truncated."""
    if not _is_integer(value):
        raise ValueError(f"{key}={value!r} must be an integer")
    if least is not None and value < least:
        raise ValueError(f"{key}={value!r} must be an integer >= {least}")
    return value


def check_integers(key: str, value, n: int) -> tuple:
    """value, n integers, as a tuple of python ints; anything else raises
    ValueError naming key."""
    entries = tuple(value) if isinstance(value, (tuple, list, np.ndarray)) else ()
    if len(entries) != n or not all(map(_is_integer, entries)):
        raise ValueError(f"{key}={value!r} must be {n} integers")
    return tuple(int(v) for v in entries)


@dataclass(frozen=True)
class Params:
    """Physical and truncation parameters.

    epsilon : Rossby number, in (0, 1].
    nu      : vertical viscosity, in (0, 1].
    beta    : surface stress amplitude, finite and >= 0.
    """

    epsilon: float
    nu: float
    beta: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.epsilon <= 1.0):
            raise ValueError(f"epsilon must lie in (0, 1], got {self.epsilon}")
        if not (0.0 < self.nu <= 1.0):
            raise ValueError(f"nu must lie in (0, 1], got {self.nu}")
        if not (0.0 <= self.beta < math.inf):
            raise ValueError(f"beta must be finite and nonnegative, got {self.beta}")

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
        return math.pi ** 2 * self.nu
