"""The transport-axiom report, imported by the first ``connections.check_transport_axioms`` call."""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import _worst


@dataclass(frozen=True)
class TransportAxiomReport:
    """Max residuals of the three module-parallel-transport axioms."""

    samples: int
    module_residual: float  # Phi_tau(s a) = Phi_tau(s) phi_tau(a)
    identity_residual: float  # Phi_0 = id
    group_residual: float  # Phi_{tau+sigma} = Phi_tau o Phi_sigma

    @property
    def max_residual(self) -> float:
        return _worst((self.module_residual, self.identity_residual, self.group_residual))
