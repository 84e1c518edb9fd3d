"""Numerical laboratory for the fluid form of free quantum evolution.

The package builds the density/velocity couple of a freely evolving
wave field, runs the matching diffusion ensembles, evaluates the
kinetic type action functionals by quadrature and by renormalized
Monte Carlo, verifies at desk scale that the wave field couple
minimizes the quantum action among couples with the same endpoint
densities, and compares everything against classical optimal transport
on the line.
"""

__version__ = "0.1.0"

from .errors import (AmplitudeInfeasible, BoundaryLeak, ConfigError, Diverged,
                     FieldRefused, MadelungLabError, NodeDetected, NormDrift,
                     OrderingViolated, SupportLeak, UnwrapInconsistent)
from .grid_fields import GridSpec, ScalarField
from .schrodinger import (GaussianPacketSpec, WaveField, free_propagate,
                          gaussian_packet, packet_classical_action,
                          packet_density, packet_initial,
                          packet_quantum_action)
from .madelung import (DriftField, FluidCouple, constant_drift, continuity_residual,
                       decompose, drift, madelung_residuals,
                       spreading_mismatched_couple)
from .action_functionals import (ActionReport, classical_action, drift_action,
                                 finite_action_norm, quantum_action)
from .nelson_sde import (Ensemble, MCEstimate, discrete_action, estimate_I,
                         marginal_l1, mixture_ensemble, renormalized_action,
                         sample_initial, simulate_ensemble)
from .competitors import (CompetitorFamily, PerturbationSpec, evaluate_family,
                          make_family, make_perturbation, verify_theorem1)
from .benamou_brenier import (GaussianMeasure, TransportPlan1D, displacement_couple,
                              euler_residual, gaussian_w2, monge_map_1d,
                              quantum_vs_classical, transport_cost)
